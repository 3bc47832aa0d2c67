package cache

import (
	"fmt"
	"sync"
	"testing"

	"tameir/internal/telemetry"
)

// The clock must give a recently-used resident a second chance and
// evict the first cold one past the hand.
func TestClockSecondChance(t *testing.T) {
	c := NewClock[int](2)
	used := map[int]bool{}
	var evicted []int
	recentlyUsed := func(r int) bool {
		u := used[r]
		used[r] = false
		return u
	}
	evict := func(r int) { evicted = append(evicted, r) }

	c.Admit(1, recentlyUsed, evict)
	c.Admit(2, recentlyUsed, evict)
	if c.Len() != 2 || len(evicted) != 0 {
		t.Fatalf("fill: len=%d evicted=%v", c.Len(), evicted)
	}

	used[1] = true // 1 is hot, 2 is cold
	c.Admit(3, recentlyUsed, evict)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("expected the cold resident 2 evicted, got %v", evicted)
	}
	if used[1] {
		t.Fatal("the sweep must clear the reference bit it spared")
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.Len(), c.Evictions())
	}

	// Everything cold now: the next admission evicts exactly one more.
	c.Admit(4, recentlyUsed, evict)
	if len(evicted) != 2 || c.Len() != 2 || c.Evictions() != 2 {
		t.Fatalf("second admission: evicted=%v len=%d", evicted, c.Len())
	}
}

// Evict must spare hot residents like Admit does, shrink the ring by
// one, leave the freed slot to the next admission, and report false
// once the ring is empty.
func TestClockEvictShrinks(t *testing.T) {
	c := NewClock[int](3)
	used := map[int]bool{}
	var evicted []int
	recentlyUsed := func(r int) bool {
		u := used[r]
		used[r] = false
		return u
	}
	evict := func(r int) { evicted = append(evicted, r) }
	for r := 1; r <= 3; r++ {
		c.Admit(r, recentlyUsed, evict)
	}
	used[1] = true
	if !c.Evict(recentlyUsed, evict) || len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("Evict: evicted=%v, want [2]", evicted)
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Fatalf("len=%d evictions=%d, want 2/1", c.Len(), c.Evictions())
	}
	c.Admit(4, recentlyUsed, evict) // takes the freed slot
	if c.Len() != 3 || len(evicted) != 1 {
		t.Fatalf("admission after Evict: len=%d evicted=%v", c.Len(), evicted)
	}
	for c.Evict(recentlyUsed, evict) {
	}
	if c.Len() != 0 || len(evicted) != 4 || c.Evictions() != 4 {
		t.Fatalf("drain: len=%d evicted=%v evictions=%d", c.Len(), evicted, c.Evictions())
	}
}

// A non-positive capacity is a programming error (callers express
// "unbounded" at the Table/Memo layer with their own defaults), and
// the ring rejects it loudly rather than silently evicting everything.
func TestClockRejectsNonPositiveCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock[int](0)
}

func TestTableGetOrCompute(t *testing.T) {
	tbl := NewTable[string, int](2, 4, StringHash)
	computes := 0
	get := func(k string) (int, bool) {
		return tbl.GetOrCompute(k, func() int { computes++; return len(k) }, nil)
	}

	if v, hit := get("a"); v != 1 || hit {
		t.Fatalf("first get: v=%d hit=%v", v, hit)
	}
	onHit := 0
	if v, hit := tbl.GetOrCompute("a", func() int { t.Fatal("recompute on hit"); return 0 }, func(p *int) { onHit++; *p = 7 }); !hit || v != 7 {
		t.Fatalf("hit path: v=%d hit=%v", v, hit)
	}
	if onHit != 1 {
		t.Fatal("onHit not invoked under the shard lock")
	}

	// Fill past capacity: "a" was just hit (reference bit set), so the
	// sweep spares it and evicts the cold "b".
	get("b")
	get("c")
	if tbl.Len() != 2 {
		t.Fatalf("len=%d, want 2", tbl.Len())
	}
	if _, ok := tbl.Get("b"); ok {
		t.Fatal("cold entry b should have been evicted")
	}
	if v, ok := tbl.Get("a"); !ok || v != 7 {
		t.Fatalf("hot entry a lost: v=%d ok=%v", v, ok)
	}

	// Get counts traffic too: miss(a) hit(a) miss(b) miss(c) above,
	// then Get(b) missed and Get(a) hit.
	st := tbl.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if computes != 3 {
		t.Fatalf("computes = %d, want 3", computes)
	}
}

// A nil hash collapses the table to one shard — the pointer-keyed
// ProgramCache configuration.
func TestTableSingleShard(t *testing.T) {
	type key struct{ p *int }
	tbl := NewTable[key, string](4, 8, nil)
	a, b := new(int), new(int)
	tbl.GetOrCompute(key{a}, func() string { return "a" }, nil)
	tbl.GetOrCompute(key{b}, func() string { return "b" }, nil)
	if v, ok := tbl.Get(key{a}); !ok || v != "a" {
		t.Fatalf("single-shard get: %q %v", v, ok)
	}
	if got := len(tbl.Keys()); got != 2 || tbl.Len() != 2 {
		t.Fatalf("keys=%d len=%d", got, tbl.Len())
	}
}

func TestStringMapGetOrCreate(t *testing.T) {
	m := NewStringMap[*int](16)
	made := 0
	mk := func(mu *sync.Mutex) *int {
		if mu == nil {
			t.Fatal("mk must receive the stripe mutex")
		}
		made++
		return new(int)
	}
	p, created := m.GetOrCreate("k", mk)
	if !created {
		t.Fatal("first GetOrCreate did not report creation")
	}
	if q, again := m.GetOrCreate("k", mk); q != p || made != 1 || again {
		t.Fatalf("GetOrCreate not idempotent: made=%d created=%v", made, again)
	}

	var wg sync.WaitGroup
	got := make([]*int, 8)
	creators := make([]bool, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], creators[i] = m.GetOrCreate("race", func(mu *sync.Mutex) *int { return new(int) })
		}(i)
	}
	wg.Wait()
	nCreated := 0
	for i, g := range got {
		if g != got[0] {
			t.Fatal("concurrent GetOrCreate returned distinct values for one key")
		}
		if creators[i] {
			nCreated++
		}
	}
	if nCreated != 1 {
		t.Fatalf("%d concurrent callers reported creating one key, want 1", nCreated)
	}

	seen := map[string]bool{}
	m.Range(func(key string, v *int) { seen[key] = true })
	if !seen["k"] || !seen["race"] || len(seen) != 2 {
		t.Fatalf("Range saw %v", seen)
	}

	m.Delete("k")
	m.Delete("absent")
	if m.Len() != 1 {
		t.Fatalf("Len after Delete = %d, want 1", m.Len())
	}
	if q, created := m.GetOrCreate("k", mk); !created || q == p {
		t.Fatal("GetOrCreate after Delete must create a fresh entry")
	}
}

func TestStatsPublish(t *testing.T) {
	tbl := NewTable[string, int](4, 2, StringHash)
	tbl.GetOrCompute("x", func() int { return 1 }, nil)
	tbl.GetOrCompute("x", func() int { return 1 }, nil)
	reg := telemetry.NewRegistry()
	tbl.Stats().Publish(reg, telemetry.Scheduling, "testcache")
	for name, want := range map[string]uint64{
		"testcache_hits_total":   1,
		"testcache_misses_total": 1,
	} {
		if got := reg.Counter(name, telemetry.Scheduling, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("testcache_size", telemetry.Scheduling, "").Value(); got != 1 {
		t.Errorf("testcache_size = %d, want 1", got)
	}
}

// StringHash must spread nearby keys (the shard selector depends on
// it) and stay stable across calls.
func TestStringHashStable(t *testing.T) {
	seen := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%d", i)
		h := StringHash(k)
		if h != StringHash(k) {
			t.Fatal("StringHash not deterministic")
		}
		seen[h] = true
	}
	if len(seen) < 32 {
		t.Fatalf("StringHash collapsed 64 keys into %d hashes", len(seen))
	}
}
