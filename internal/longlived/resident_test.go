package longlived

import (
	"testing"

	"shmrename/internal/shm"
)

// TestLevelResidentOnFirstClaim pins the fixed ladder's accounting. A
// fresh ladder reports its hints (and, leased, its stamp page table) only;
// the first claim in a level adds exactly that level's bitmap, plus the
// stamp page of the claimed name when leased, and a second claim in the
// same word adds nothing.
func TestLevelResidentOnFirstClaim(t *testing.T) {
	for _, leased := range []bool{false, true} {
		cfg := LevelConfig{Padded: true, Label: "t-lres"}
		if leased {
			cfg.Lease = &LeaseOpts{Epochs: shm.NewCounterEpochs(1)}
		}
		a := NewLevel(4096, cfg)
		p := nativeProc(0)
		var fresh int64
		for _, lvl := range a.levels {
			fresh += int64(lvl.Words()+63) / 64 * 8
		}
		if leased {
			fresh += int64(a.bound+63) / 64 * 8
		}
		if got := a.ResidentBytes(); got != fresh {
			t.Fatalf("leased=%v: fresh ladder holds %d bytes, want %d (hints and page table)", leased, got, fresh)
		}
		stamp := a.leaseStamp(p)
		for li, lvl := range a.levels {
			before := a.ResidentBytes()
			if !a.tryClaim(p, lvl, 0, stamp) {
				t.Fatalf("leased=%v: first claim in level %d failed", leased, li)
			}
			want := int64(lvl.Words()) * 64 // padded: one 64-byte line per word
			if leased {
				want += 64 * 8 // the stamp page of the level's first word
			}
			if got := a.ResidentBytes() - before; got != want {
				t.Fatalf("leased=%v: first claim in level %d added %d bytes, want %d", leased, li, got, want)
			}
			before = a.ResidentBytes()
			a.tryClaim(p, lvl, 1, stamp)
			if got := a.ResidentBytes(); got != before {
				t.Fatalf("leased=%v: second claim in level %d added %d bytes", leased, li, got-before)
			}
		}
	}
}

// TestElasticResidentBytesFollowClaims: the elastic report sums storage at
// call time, so it counts a level's bitmap when its first claim installs
// it rather than when the level grows, and a retire drops exactly that
// level's storage.
func TestElasticResidentBytesFollowClaims(t *testing.T) {
	a := NewElastic(4096, ElasticConfig{Label: "t-eres"})
	p := nativeProc(0)
	const hint = 8
	if got := a.ResidentBytes(); got != hint {
		t.Fatalf("fresh ladder holds %d bytes, want level 0's hint word", got)
	}
	if !a.Grow() {
		t.Fatal("grow failed")
	}
	if got := a.ResidentBytes(); got != 2*hint {
		t.Fatalf("grown ladder holds %d bytes, want two hint words", got)
	}
	top := a.levels[1].Load().space
	top.TryClaim(p, 0)
	if got, want := a.ResidentBytes(), int64(2*hint+top.Words()*8); got != want {
		t.Fatalf("after the first claim in level 1: %d bytes, want %d", got, want)
	}
	top.Free(p, 0)
	if !a.Shrink() {
		t.Fatal("empty top level did not retire")
	}
	if got := a.ResidentBytes(); got != hint {
		t.Fatalf("after the retire: %d bytes, want level 0's hint word", got)
	}
}
