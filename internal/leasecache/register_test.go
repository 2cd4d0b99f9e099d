package leasecache

import (
	"testing"

	"shmrename/internal/longlived"
	"shmrename/internal/registry"
	"shmrename/internal/shm"
)

// TestRegistryLeaseOneHolder pins the registered lease-cached shape's
// lease holder: with Epochs set and no Holder, one proc leases names and
// another releases them and flushes. Per-proc stamps would make every such
// release fail its ownership check and leave the claim bit set; one
// holder for the whole handle returns every name. A Holder the caller
// names is still the one stamped.
func TestRegistryLeaseOneHolder(t *testing.T) {
	b, ok := registry.Lookup("lease-cached")
	if !ok {
		t.Fatal("lease-cached is not registered")
	}
	a := b.New(registry.Config{Capacity: 512, Epochs: shm.NewCounterEpochs(1)})
	p0, p1 := proc(0), proc(1)
	names := make([]int, 0, 300)
	for i := range 300 {
		n := a.Acquire(p0)
		if n < 0 {
			t.Fatalf("acquire %d failed", i)
		}
		names = append(names, n)
	}
	for _, n := range names {
		a.Release(p1, n)
	}
	a.(registry.Flusher).Flush(p1)
	if h := a.Held(); h != 0 {
		t.Fatalf("Held() = %d after every name was released and the cache flushed, want 0", h)
	}

	const holder = 7001
	a = b.New(registry.Config{Capacity: 64, Epochs: shm.NewCounterEpochs(1), Holder: holder})
	n := a.Acquire(p0)
	for _, d := range a.(longlived.Recoverable).LeaseDomains() {
		if j := n - d.Base; j >= 0 && j < d.Stamps.Size() {
			if h, _ := shm.UnpackStamp(d.Stamps.Load(j)); h != holder {
				t.Fatalf("name %d stamped with holder %d, want the configured %d", n, h, holder)
			}
			return
		}
	}
	t.Fatalf("name %d lies in no lease domain", n)
}
