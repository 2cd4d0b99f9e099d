package shmrename

// Documentation integrity tests: every relative markdown link in the
// repository's documentation must resolve to a file that exists, so the
// paper→code map and the perf docs cannot silently rot as files move.
// The CI docs job runs these alongside the exported-identifier doc-comment
// checks.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches [text](target) markdown links. Images and reference-style
// links do not occur in this repository's docs.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// docFiles returns the repository's markdown files.
func docFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

func TestDocLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip intra-file anchors from relative links.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q: %v", file, m[1], err)
			}
		}
	}
}

// expID matches a whole experiment id (E1..E16 style), so "E1" cannot be
// satisfied by an occurrence of "E10".
var expID = regexp.MustCompile(`\bE(\d+)\b`)

// TestDocsNameRealExperiments pins the paper→code map's experiment index
// to the registry: every experiment id the harness exposes must be
// documented in ALGORITHMS.md, and the map must not advertise ids that do
// not exist.
func TestDocsNameRealExperiments(t *testing.T) {
	data, err := os.ReadFile("ALGORITHMS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	const known = 21 // E1..E21, matching harness.All()
	mentioned := make(map[int]bool)
	for _, m := range expID.FindAllStringSubmatch(text, -1) {
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatalf("unparseable experiment id %q", m[0])
		}
		if n < 1 || n > known {
			t.Errorf("ALGORITHMS.md advertises nonexistent experiment E%d", n)
		}
		mentioned[n] = true
	}
	for n := 1; n <= known; n++ {
		if !mentioned[n] {
			t.Errorf("ALGORITHMS.md missing experiment E%d", n)
		}
	}
	for _, ref := range []string{"internal/taureg", "internal/longlived",
		"internal/sched", "internal/sharded", "internal/core",
		"internal/recovery", "internal/persist", "internal/leasecache",
		"internal/registry", "internal/registry/conformance",
		"internal/integrity", "internal/chaos"} {
		if !strings.Contains(text, ref) {
			t.Errorf("ALGORITHMS.md missing package reference %s", ref)
		}
	}
}

// configField matches a documented field of a public config or stats
// type, such as ArenaConfig.Shards or shmrename.LeaseConfig.TTL. Another
// package's qualifier (longlived.ElasticConfig.X) names a different type
// and does not match.
var configField = regexp.MustCompile(`(?:^|[^\w.])(?:shmrename\.)?(ArenaConfig|ElasticConfig|LeaseConfig|IntegrityConfig|ArenaStats)\.(\w+)`)

// TestDocConfigFieldsExist checks that every config or stats field the
// docs name exists: the root package's Go comments and README.md,
// ALGORITHMS.md and PERF.md may not name a field that was removed or
// renamed. CHANGES.md and ROADMAP.md hold history and plans, so they may.
func TestDocConfigFieldsExist(t *testing.T) {
	types := map[string]reflect.Type{
		"ArenaConfig":     reflect.TypeFor[ArenaConfig](),
		"ElasticConfig":   reflect.TypeFor[ElasticConfig](),
		"LeaseConfig":     reflect.TypeFor[LeaseConfig](),
		"IntegrityConfig": reflect.TypeFor[IntegrityConfig](),
		"ArenaStats":      reflect.TypeFor[ArenaStats](),
	}
	check := func(where, text string) {
		for _, m := range configField.FindAllStringSubmatch(text, -1) {
			if _, ok := types[m[1]].FieldByName(m[2]); !ok {
				t.Errorf("%s: names %s.%s, which is not a field", where, m[1], m[2])
			}
		}
	}
	goFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range goFiles {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				check(fset.Position(c.Pos()).String(), c.Text)
			}
		}
	}
	for _, file := range []string{"README.md", "ALGORITHMS.md", "PERF.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			check(file+":"+strconv.Itoa(i+1), line)
		}
	}
}
