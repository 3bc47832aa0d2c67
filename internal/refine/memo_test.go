package refine

import (
	"fmt"
	"reflect"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

var memoPairs = []struct {
	src, tgt   string
	legacyOnly bool // uses undef, which the freeze dialect rejects
}{
	// Valid nsw comparison transform (§2.4).
	{src: `define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`, tgt: `define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`},
	// Invalid wrapping variant of the same transform.
	{src: `define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`, tgt: `define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`},
	// Identity on a nondeterminism-heavy function: same src behaviour
	// sets get looked up by both sides.
	{src: `define i2 @g(i2 %a) {
entry:
  %x = freeze i2 %a
  %y = xor i2 %x, %a
  ret i2 %y
}`, tgt: `define i2 @g(i2 %a) {
entry:
  %x = freeze i2 %a
  %y = xor i2 %x, %a
  ret i2 %y
}`},
	// Refinement with undef in the source.
	{src: `define i2 @h(i2 %a) {
entry:
  %x = or i2 %a, undef
  ret i2 %x
}`, tgt: `define i2 @h(i2 %a) {
entry:
  ret i2 %a
}`, legacyOnly: true},
}

// TestMemoNeverChangesVerdict runs every pair twice per semantics —
// cold and against a warm shared memo — and requires identical
// Results. Memo keys are full canonical strings, so this holds by
// construction; the test guards the construction.
func TestMemoNeverChangesVerdict(t *testing.T) {
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		memo := NewMemo(0)
		for round := 0; round < 2; round++ {
			for i, p := range memoPairs {
				if p.legacyOnly && opts.Mode == core.Freeze {
					continue
				}
				src := ir.MustParseFunc(p.src)
				tgt := ir.MustParseFunc(p.tgt)
				cfg := DefaultConfig(opts, opts)

				plain := Check(src, tgt, cfg)
				cfg.Memo = memo
				memoized := Check(src, tgt, cfg)
				if !reflect.DeepEqual(plain, memoized) {
					t.Errorf("mode=%v pair=%d round=%d: memo changed verdict:\nplain:    %s\nmemoized: %s",
						opts.Mode, i, round, plain, memoized)
				}
			}
		}
		if memo.Hits() == 0 {
			t.Errorf("mode=%v: warm rounds produced no memo hits", opts.Mode)
		}
	}
}

// TestMemoHitsOnRepeatedCheck: a second identical Check must be
// answered entirely from the cache.
func TestMemoHitsOnRepeatedCheck(t *testing.T) {
	src := ir.MustParseFunc(memoPairs[0].src)
	tgt := ir.MustParseFunc(memoPairs[0].tgt)
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)

	Check(src, tgt, cfg)
	cold := cfg.Memo.Lookups()
	if cold == 0 {
		t.Fatal("no memo lookups on first Check")
	}
	hitsBefore := cfg.Memo.Hits()

	Check(src, tgt, cfg)
	if got := cfg.Memo.Hits() - hitsBefore; got != cold {
		t.Errorf("second Check: %d hits, want all %d lookups to hit", got, cold)
	}
}

// lookupFreeze looks fn up on args under the default freeze config,
// through a fresh side as a one-off Behaviors call would.
func lookupFreeze(s *MemoSession, fn *ir.Func, args []core.Value) (memoRef, bool) {
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	ref, _, ok := s.lookup(&side{fn: fn, opts: opts}, args, -1, &cfg)
	return ref, ok
}

// storeSet caches an empty behaviour set for fn on the input 0 through
// session s.
func storeSet(s *MemoSession, fn *ir.Func) {
	ref, _ := lookupFreeze(s, fn, []core.Value{core.VC(ir.I2, 0)})
	s.store(ref, BehaviorSet{})
}

// hasSet reports whether fn's set from storeSet is resident.
func hasSet(s *MemoSession, fn *ir.Func) bool {
	_, ok := lookupFreeze(s, fn, []core.Value{core.VC(ir.I2, 0)})
	return ok
}

// TestMemoEvictsWhenFull: a full memo admits a new function entry by
// evicting a cold one, sets and all, instead of refusing it.
func TestMemoEvictsWhenFull(t *testing.T) {
	m := NewMemo(1)
	s := m.NewSession()
	a := ir.MustParseFunc(memoPairs[0].src)
	b := ir.MustParseFunc(memoPairs[1].src)

	storeSet(s, a)
	storeSet(s, b)
	if m.Len() != 1 || m.funcs.Len() != 1 {
		t.Fatalf("Len = %d sets in %d entries, want 1 in 1 (capacity)", m.Len(), m.funcs.Len())
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", m.Evictions())
	}
	if !hasSet(s, b) {
		t.Error("newly admitted entry missing")
	}
	if hasSet(s, a) {
		t.Error("cold entry survived eviction")
	}
}

// TestMemoSecondChance: the clock spares recently hit entries and
// evicts cold ones.
func TestMemoSecondChance(t *testing.T) {
	m := NewMemo(2)
	s := m.NewSession()
	fns := []*ir.Func{
		ir.MustParseFunc(memoPairs[0].src),
		ir.MustParseFunc(memoPairs[1].src),
		ir.MustParseFunc(memoPairs[2].src),
	}
	storeSet(s, fns[0])
	storeSet(s, fns[1])
	// Touch the first entry so its reference bit protects it.
	if !hasSet(s, fns[0]) {
		t.Fatal("warm entry missing before eviction")
	}
	storeSet(s, fns[2])

	if !hasSet(s, fns[0]) {
		t.Error("recently hit entry was evicted despite its second chance")
	}
	if hasSet(s, fns[1]) {
		t.Error("cold entry survived; clock should have chosen it as victim")
	}
}

// TestMemoSkipsIncomplete: incomplete behaviour sets depend on the
// enumeration bounds and must never be cached.
func TestMemoSkipsIncomplete(t *testing.T) {
	m := NewMemo(0)
	s := m.NewSession()
	fn := ir.MustParseFunc(memoPairs[2].src)
	ref, _ := lookupFreeze(s, fn, nil)
	s.store(ref, BehaviorSet{Incomplete: true})
	if m.Len() != 0 {
		t.Error("incomplete set was cached")
	}
}

// TestMemoEvictionKeepsVerdicts squeezes every pair through a memo so
// small that eviction churns constantly, and requires the verdicts to
// match memo-less runs exactly. An eviction may cost a recomputation;
// it must never change a Result.
func TestMemoEvictionKeepsVerdicts(t *testing.T) {
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		memo := NewMemo(2)
		for round := 0; round < 2; round++ {
			for i, p := range memoPairs {
				if p.legacyOnly && opts.Mode == core.Freeze {
					continue
				}
				src := ir.MustParseFunc(p.src)
				tgt := ir.MustParseFunc(p.tgt)
				cfg := DefaultConfig(opts, opts)

				plain := Check(src, tgt, cfg)
				cfg.Memo = memo
				memoized := Check(src, tgt, cfg)
				if !reflect.DeepEqual(plain, memoized) {
					t.Errorf("mode=%v pair=%d round=%d: eviction changed verdict:\nplain:    %s\nmemoized: %s",
						opts.Mode, i, round, plain, memoized)
				}
			}
		}
		if memo.Evictions() == 0 {
			t.Errorf("mode=%v: memo of size 2 saw no evictions; test is not exercising the clock", opts.Mode)
		}
		if got := memo.funcs.Len(); got > 2 {
			t.Errorf("mode=%v: %d function entries exceed capacity 2", opts.Mode, got)
		}
	}
}

// TestMemoConcurrentSessions shares one memo across goroutines that
// each check every pair, then requires the verdicts to match a serial
// memo-less run. Run under -race this also exercises the shard and
// ring locking.
func TestMemoConcurrentSessions(t *testing.T) {
	opts := core.LegacyOptions(core.BranchPoisonNondet)
	want := make([]Result, len(memoPairs))
	for i, p := range memoPairs {
		cfg := DefaultConfig(opts, opts)
		want[i] = Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg)
	}

	memo := NewMemo(64) // small enough that workers also race evictions
	const workers = 8
	errs := make(chan string, workers*len(memoPairs))
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			cfg := DefaultConfig(opts, opts)
			cfg.Memo = memo
			cfg.Session = memo.NewSession()
			for i, p := range memoPairs {
				got := Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg)
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("pair %d: concurrent verdict %s, want %s", i, got, want[i])
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if memo.Hits() == 0 {
		t.Error("concurrent sessions produced no cross-session hits")
	}
}

// TestMemoFuncKeyGolden pins the first-level key text byte for byte:
// every memo entry is keyed by it, so any drift in the option prefix or
// the function printer shows up here before it can split or merge memo
// entries.
func TestMemoFuncKeyGolden(t *testing.T) {
	fn := ir.MustParseFunc(memoPairs[0].src)
	const text = "define i1 @f(i2 %a, i2 %b) {\nentry:\n  %add = add nsw i2 %a, %b\n  %cmp = icmp sgt i2 %add, %a\n  ret i1 %cmp\n}\n"
	wide := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	wide.ExhaustiveInputBits = 8
	wide.MaxFanout = 1 << 40
	wide.Fuel = -3
	for _, tc := range []struct {
		opts core.Options
		cfg  Config
		want string
	}{
		{core.FreezeOptions(), DefaultConfig(core.FreezeOptions(), core.FreezeOptions()),
			"1|0|0|false|0|0|1|0|16|256|16384|4096\x00" + text},
		{core.LegacyOptions(core.BranchPoisonNondet), DefaultConfig(core.LegacyOptions(core.BranchPoisonNondet), core.LegacyOptions(core.BranchPoisonNondet)),
			"0|1|0|true|0|0|0|0|16|256|16384|4096\x00" + text},
		{core.FreezeOptions(), wide,
			"1|0|0|false|0|0|1|8|16|1099511627776|16384|-3\x00" + text},
	} {
		if got := string(appendMemoFuncKey(nil, fn, memoOptsOf(tc.opts, &tc.cfg))); got != tc.want {
			t.Errorf("key drifted:\ngot  %q\nwant %q", got, tc.want)
		}
	}
}

// memoFuncs returns n distinct i2 functions with their freeze-guarded
// twins (each twin refines its source): a small campaign's worth of
// first-level keys.
func memoFuncs(n int) (srcs, tgts []string) {
	ops := []string{"add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr", "udiv", "urem"}
	for i := 0; len(srcs) < n; i++ {
		op, c := ops[i%len(ops)], (i/len(ops))%4
		body := fmt.Sprintf("%%r = %s i2 %%x, %d\n  ret i2 %%r\n}", op, c)
		srcs = append(srcs, fmt.Sprintf("define i2 @f%d(i2 %%a) {\nentry:\n  %%x = add i2 %%a, 0\n  %s", i/(4*len(ops)), body))
		tgts = append(tgts, fmt.Sprintf("define i2 @f%d(i2 %%a) {\nentry:\n  %%x = freeze i2 %%a\n  %s", i/(4*len(ops)), body))
	}
	return srcs, tgts
}

// residentSets sums the sets held by the entries in m's index.
func residentSets(m *Memo) int {
	n := 0
	m.funcs.Range(func(_ string, e *memoFuncEntry) { n += e.n })
	return n
}

// TestMemoIndexBoundedByCap runs a small campaign through a memo
// capped far below its number of distinct functions and requires the
// index itself — not just the set count — to stay within the cap:
// evicted entries must leave the index, key text and all.
func TestMemoIndexBoundedByCap(t *testing.T) {
	const capacity = 8
	opts := core.FreezeOptions()
	srcs, tgts := memoFuncs(64)
	memo := NewMemo(capacity)
	for i := range srcs {
		src, tgt := ir.MustParseFunc(srcs[i]), ir.MustParseFunc(tgts[i])
		cfg := DefaultConfig(opts, opts)
		plain := Check(src, tgt, cfg)
		cfg.Memo = memo
		for rep := 0; rep < 2; rep++ { // the repeat hits
			if got := Check(src, tgt, cfg); !reflect.DeepEqual(got, plain) {
				t.Fatalf("func %d: memo changed verdict: %s, want %s", i, got, plain)
			}
		}
	}
	if got := memo.funcs.Len(); got > capacity {
		t.Errorf("index holds %d entries, cap is %d", got, capacity)
	}
	if got := memo.clock.Len(); got > capacity {
		t.Errorf("clock holds %d entries, cap is %d", got, capacity)
	}
	if memo.Evictions() == 0 || memo.Hits() == 0 {
		t.Errorf("evictions=%d hits=%d: the campaign did not exercise the cap", memo.Evictions(), memo.Hits())
	}
	if got, want := memo.Len(), residentSets(memo); got != want {
		t.Errorf("Len = %d, but the index holds %d sets", got, want)
	}
}

// wideFuncs returns n distinct i8 src/tgt pairs that refine (the tgt
// freezes an operand the src only adds zero to), each with one input
// per i8 value plus the special values once the exhaustive cutoff is
// raised to 8 bits.
func wideFuncs(n int) (srcs, tgts []string) {
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("%%r = xor i8 %%x, %d\n  ret i8 %%r\n}", i)
		srcs = append(srcs, fmt.Sprintf("define i8 @w(i8 %%a) {\nentry:\n  %%x = add i8 %%a, 0\n  %s", body))
		tgts = append(tgts, fmt.Sprintf("define i8 @w(i8 %%a) {\nentry:\n  %%x = freeze i8 %%a\n  %s", body))
	}
	return srcs, tgts
}

// TestMemoSetBudgetBoundsWideFunctions: the entry cap alone would let
// a few wide functions hold hundreds of sets each. The set budget must
// keep the resident sets within bounds whatever the entry count, by
// evicting whole entries, and still never change a verdict.
func TestMemoSetBudgetBoundsWideFunctions(t *testing.T) {
	const capacity = 16 // a budget just under two i8 entries' worth of sets
	budget := capacity * memoSetsPerEntry
	opts := core.FreezeOptions()
	srcs, tgts := wideFuncs(8)
	memo := NewMemo(capacity)
	for i := range srcs {
		src, tgt := ir.MustParseFunc(srcs[i]), ir.MustParseFunc(tgts[i])
		cfg := DefaultConfig(opts, opts)
		cfg.ExhaustiveInputBits = 8
		plain := Check(src, tgt, cfg)
		if plain.Status != Verified || !plain.Exhaustive || plain.Inputs < 256 {
			t.Fatalf("func %d: %s after %d inputs, want an exhaustive i8 verification", i, plain, plain.Inputs)
		}
		cfg.Memo = memo
		for rep := 0; rep < 2; rep++ {
			if got := Check(src, tgt, cfg); !reflect.DeepEqual(got, plain) {
				t.Fatalf("func %d: memo changed verdict: %s, want %s", i, got, plain)
			}
			if got := memo.Len(); got > budget {
				t.Fatalf("func %d: %d sets resident, budget is %d", i, got, budget)
			}
		}
	}
	if memo.Evictions() == 0 || memo.Hits() == 0 {
		t.Errorf("evictions=%d hits=%d: the campaign did not exercise the budget", memo.Evictions(), memo.Hits())
	}
	if got := memo.funcs.Len(); got >= capacity {
		t.Errorf("index holds %d entries: the entry cap, not the set budget, did the evicting", got)
	}
	if got, want := memo.Len(), residentSets(memo); got != want {
		t.Errorf("Len = %d, but the index holds %d sets", got, want)
	}
	if got := memo.clock.Len(); got != memo.funcs.Len() {
		t.Errorf("clock holds %d entries, index %d", got, memo.funcs.Len())
	}
}

// TestMemoWideEntryGrowsOnDemand: an i16 entry's ordinal space has
// 2^16+ slots, but a Check that refutes within a few inputs must not
// allocate them all.
func TestMemoWideEntryGrowsOnDemand(t *testing.T) {
	opts := core.FreezeOptions()
	src := ir.MustParseFunc("define i16 @f(i16 %a) {\nentry:\n  ret i16 %a\n}")
	tgt := ir.MustParseFunc("define i16 @f(i16 %a) {\nentry:\n  ret i16 7\n}")
	cfg := DefaultConfig(opts, opts)
	cfg.ExhaustiveInputBits = 16
	cfg.MaxInputs = 1 << 17
	cfg.Memo = NewMemo(0)
	res := Check(src, tgt, cfg)
	if res.Status != Refuted || res.Inputs > 16 {
		t.Fatalf("got %s after %d inputs, want an early refutation", res, res.Inputs)
	}
	cfg.Memo.funcs.Range(func(_ string, e *memoFuncEntry) {
		if cap(e.byIdx) > 2*res.Inputs {
			t.Errorf("entry allocated %d slots for %d inputs", cap(e.byIdx), res.Inputs)
		}
	})
}

// TestMemoDeadEntryReresolved: a session that still holds an evicted
// entry — on a Check side or in its identity cache — must neither
// refill it nor keep missing on it; its next lookup goes back to the
// index.
func TestMemoDeadEntryReresolved(t *testing.T) {
	m := NewMemo(1)
	holder, other := m.NewSession(), m.NewSession()
	a := ir.MustParseFunc(memoPairs[0].src)
	b := ir.MustParseFunc(memoPairs[1].src)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	in := []core.Value{core.VC(ir.I2, 0)}

	for _, viaSide := range []bool{true, false} {
		sd := &side{fn: a, opts: opts}
		ref, _, _ := holder.lookup(sd, in, 0, &cfg)
		storeSet(other, b) // evicts a's entry while holder still has it
		if !ref.entry.dead.Load() {
			t.Fatal("entry for a was not evicted")
		}
		holder.store(ref, BehaviorSet{})
		if m.Len() != 1 || ref.entry.n != 0 {
			t.Fatalf("store into an evicted entry was kept: Len=%d, dead entry holds %d", m.Len(), ref.entry.n)
		}
		if !viaSide {
			sd = &side{fn: a, opts: opts} // only the identity cache remembers
		}
		ref2, _, _ := holder.lookup(sd, in, 0, &cfg)
		if ref2.entry == ref.entry || ref2.entry.dead.Load() {
			t.Fatalf("viaSide=%v: lookup kept using the evicted entry", viaSide)
		}
		holder.store(ref2, BehaviorSet{})
		if _, _, ok := holder.lookup(sd, in, 0, &cfg); !ok {
			t.Errorf("viaSide=%v: set stored after re-resolution is missing", viaSide)
		}
	}
}

// TestMemoConcurrentEviction has workers check a rotating set of
// functions through a memo that holds only two entries, or only a
// dozen sets, so entries are evicted — to admit a new entry, or to
// meet the set budget — while other sessions hold them in their
// identity caches and are mid-lookup or mid-store on them. Verdicts
// must match memo-less runs, the bounds must hold at the end, and the
// index and set count must agree. Run under -race it also exercises
// the ring → stripe lock order.
func TestMemoConcurrentEviction(t *testing.T) {
	t.Run("entries", func(t *testing.T) {
		srcs, tgts := memoFuncs(12)
		memo := NewMemo(2)
		raceEviction(t, memo, srcs, tgts, 0)
		if got := memo.funcs.Len(); got > 2 {
			t.Errorf("index holds %d entries, cap is 2", got)
		}
	})
	t.Run("sets", func(t *testing.T) {
		// Each i8 entry fills to about 260 sets against a budget of
		// 128, so stores keep evicting entries mid-fill.
		srcs, tgts := wideFuncs(4)
		memo := NewMemo(4)
		raceEviction(t, memo, srcs, tgts, 8)
		if got, budget := memo.Len(), 4*memoSetsPerEntry; got > budget {
			t.Errorf("%d sets resident, budget is %d", got, budget)
		}
	})
}

func raceEviction(t *testing.T, memo *Memo, srcs, tgts []string, inputBits uint) {
	opts := core.FreezeOptions()
	base := DefaultConfig(opts, opts)
	base.ExhaustiveInputBits = inputBits
	want := make([]Result, len(srcs))
	for i := range srcs {
		want[i] = Check(ir.MustParseFunc(srcs[i]), ir.MustParseFunc(tgts[i]), base)
	}

	const workers = 6
	errs := make(chan string, workers*len(srcs))
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			cfg := base
			cfg.Memo = memo
			cfg.Session = memo.NewSession()
			// Parsed once per worker, so the identity cache keeps
			// resolving the same *ir.Func to entries that other
			// workers evict underneath it.
			src := make([]*ir.Func, len(srcs))
			tgt := make([]*ir.Func, len(srcs))
			for i := range srcs {
				src[i], tgt[i] = ir.MustParseFunc(srcs[i]), ir.MustParseFunc(tgts[i])
			}
			for round := 0; round < 3; round++ {
				for k := range srcs {
					i := (k + w) % len(srcs)
					if got := Check(src[i], tgt[i], cfg); !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Sprintf("worker %d func %d: verdict %s, want %s", w, i, got, want[i])
					}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if memo.Evictions() == 0 {
		t.Error("no evictions: the test is not racing eviction")
	}
	if got, want := memo.Len(), residentSets(memo); got != want {
		t.Errorf("Len = %d, but the index holds %d sets", got, want)
	}
	if got := memo.clock.Len(); got != memo.funcs.Len() {
		t.Errorf("clock holds %d entries, index %d", got, memo.funcs.Len())
	}
}

// TestMemoHitSkipsCompile: a Check whose every behaviour set comes from
// the memo never compiles either side.
func TestMemoHitSkipsCompile(t *testing.T) {
	opts := core.FreezeOptions()
	src := ir.MustParseFunc(memoPairs[0].src)
	tgt := ir.MustParseFunc(memoPairs[0].tgt)
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(0)
	cfg.Programs = core.NewProgramCache(0)
	var m CheckMetrics
	cfg.Metrics = &m

	cold := Check(src, tgt, cfg)
	if st := cfg.Programs.Stats(); st.Misses != 2 {
		t.Fatalf("cold Check compiled %d sides, want 2", st.Misses)
	}
	coldExecs := m.Engine.Execs
	before := cfg.Programs.Stats()
	// Fresh, textually identical functions: the program cache is keyed
	// by pointer, so any compile would show up as a miss.
	warm := Check(ir.MustParseFunc(memoPairs[0].src), ir.MustParseFunc(memoPairs[0].tgt), cfg)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("memo changed verdict: %s, want %s", warm, cold)
	}
	after := cfg.Programs.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("all-hit Check touched the program cache: %+v -> %+v", before, after)
	}
	if m.Engine.Execs != coldExecs {
		t.Errorf("all-hit Check executed %d times", m.Engine.Execs-coldExecs)
	}
}
