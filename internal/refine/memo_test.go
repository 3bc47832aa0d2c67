package refine

import (
	"fmt"
	"reflect"
	"sync"
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

// TestMemoHitsOnRepeatedCheck: a second identical Check must read its
// whole target from the published vector, and the memo must count
// target inputs only: the source side never touches it.
func TestMemoHitsOnRepeatedCheck(t *testing.T) {
	src := ir.MustParseFunc(memoPairs[0].src)
	tgt := ir.MustParseFunc(memoPairs[0].tgt)
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)
	// One session throughout, so the second Check's source is served
	// from the session's source vector — which the memo must not count.
	cfg.Session = cfg.Memo.NewSession()

	cold := Check(src, tgt, cfg)
	if got := cfg.Memo.Lookups(); got != uint64(cold.Inputs) {
		t.Fatalf("first Check: %d lookups, want one per target input (%d)", got, cold.Inputs)
	}
	if got := cfg.Memo.Len(); got != cold.Inputs || cfg.Memo.funcs.Len() != 1 {
		t.Fatalf("first Check left %d sets in %d entries, want the target's %d in 1", got, cfg.Memo.funcs.Len(), cold.Inputs)
	}
	if cfg.Memo.Hits() != 0 {
		t.Fatalf("first Check: %d hits on an empty memo", cfg.Memo.Hits())
	}

	Check(src, tgt, cfg)
	if got, want := cfg.Memo.Hits(), uint64(cold.Inputs); got != want {
		t.Errorf("second Check: %d hits, want all %d target inputs", got, want)
	}
	if got, want := cfg.Memo.Lookups(), uint64(2*cold.Inputs); got != want {
		t.Errorf("after two Checks: %d lookups, want %d (target inputs only)", got, want)
	}
	if got := cfg.Memo.Len(); got != cold.Inputs {
		t.Errorf("second Check changed the resident sets: %d, want %d", got, cold.Inputs)
	}
}

// TestMemoRefutedCheckPublishesNothing: a Check that refutes before
// its last input has no complete vector to publish.
func TestMemoRefutedCheckPublishesNothing(t *testing.T) {
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Memo = NewMemo(0)
	res := Check(ir.MustParseFunc(memoPairs[1].src), ir.MustParseFunc(memoPairs[1].tgt), cfg)
	if res.Status != Refuted {
		t.Fatalf("got %s, want a refutation", res)
	}
	if cfg.Memo.Len() != 0 || cfg.Memo.funcs.Len() != 0 || cfg.Memo.clock.Len() != 0 {
		t.Errorf("refuted Check published: %d sets in %d entries", cfg.Memo.Len(), cfg.Memo.funcs.Len())
	}
	if got := cfg.Memo.Lookups(); got != uint64(res.Inputs) {
		t.Errorf("%d lookups, want one per target input served (%d)", got, res.Inputs)
	}
}

// TestMemoIdenticalTargetReadsSource: a target whose text and semantics
// equal its source's is served from the source vector, so its sets are
// swept once, and its vector is still published for later targets.
func TestMemoIdenticalTargetReadsSource(t *testing.T) {
	opts := core.LegacyOptions(core.BranchPoisonNondet)
	p := memoPairs[2]
	base := DefaultConfig(opts, opts)
	var plainExecs, execs uint64
	base.ExecCount = &plainExecs
	plain := Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), base)

	cfg := base
	cfg.ExecCount = &execs
	cfg.Memo = NewMemo(0)
	if got := Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg); !reflect.DeepEqual(got, plain) {
		t.Fatalf("memo changed verdict: %s, want %s", got, plain)
	}
	if execs == 0 || 2*execs != plainExecs {
		t.Errorf("memoized Check ran %d executions, want half of the memo-less %d", execs, plainExecs)
	}
	if cfg.Memo.funcs.Len() != 1 || cfg.Memo.Len() != plain.Inputs {
		t.Errorf("identical target published %d sets in %d entries, want %d in 1", cfg.Memo.Len(), cfg.Memo.funcs.Len(), plain.Inputs)
	}
	// A fresh source with that text as its target now hits throughout.
	execs = 0
	hits := cfg.Memo.Hits()
	Check(ir.MustParseFunc(memoPairs[2].src), ir.MustParseFunc(p.tgt), cfg)
	if got := cfg.Memo.Hits() - hits; got != uint64(plain.Inputs) || 2*execs != plainExecs {
		t.Errorf("republished target: %d hits and %d executions, want %d and %d", got, execs, plain.Inputs, plainExecs/2)
	}
}

// TestMemoSourceSweptOncePerSession: one session checking one source
// against several targets sweeps the source once; only targets cost
// executions after the first Check.
func TestMemoSourceSweptOncePerSession(t *testing.T) {
	opts := core.FreezeOptions()
	srcs, twins := memoFuncs(5)
	// The add, sub and or twins of an identity source: each refines it,
	// so every Check sweeps all inputs.
	tgts := []string{twins[0], twins[1], twins[4]}
	base := DefaultConfig(opts, opts)
	src := ir.MustParseFunc(srcs[0])
	sweep := func(fn *ir.Func) uint64 { // executions of one memo-less side
		var n uint64
		cfg := base
		cfg.ExecCount = &n
		Check(fn, ir.MustParseFunc(fn.String()), cfg)
		return n / 2
	}
	var want uint64 = sweep(src)
	for _, tt := range tgts {
		want += sweep(ir.MustParseFunc(tt))
	}
	var execs uint64
	cfg := base
	cfg.ExecCount = &execs
	cfg.Memo = NewMemo(0)
	cfg.Session = cfg.Memo.NewSession()
	for _, tt := range tgts {
		Check(src, ir.MustParseFunc(tt), cfg)
	}
	if execs != want {
		t.Errorf("three Checks of one source ran %d executions, want %d (one source sweep plus each target's)", execs, want)
	}
}

// TestMemoRacingMissPublishesOnce: sessions that all miss on one
// target compute it side by side, and exactly one vector is published.
// Every session is held at its first target set until all have probed,
// so the race is certain, not likely.
func TestMemoRacingMissPublishesOnce(t *testing.T) {
	opts := core.FreezeOptions()
	p := memoPairs[0]
	want := Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), DefaultConfig(opts, opts))
	memo := NewMemo(0)
	const workers = 4
	var probed sync.WaitGroup
	probed.Add(workers)
	got := make([]Result, workers)
	var done sync.WaitGroup
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			cfg := DefaultConfig(opts, opts)
			cfg.Memo = memo
			cfg.Session = memo.NewSession()
			sets := 0
			cfg.BehaviorHook = func(BehaviorSet) {
				if sets++; sets == 2 { // the first target set: probed and missed
					probed.Done()
					probed.Wait()
				}
			}
			got[w] = Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg)
		}(w)
	}
	done.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("worker %d: %s, want %s", w, got[w], want)
		}
	}
	if memo.Hits() != 0 {
		t.Fatalf("%d hits: the sessions did not all miss", memo.Hits())
	}
	if memo.funcs.Len() != 1 || memo.clock.Len() != 1 || memo.Len() != want.Inputs {
		t.Errorf("racing misses left %d sets in %d entries (%d admitted), want one vector of %d",
			memo.Len(), memo.funcs.Len(), memo.clock.Len(), want.Inputs)
	}
}

// freezeKey renders fn's index key under the default freeze config.
func freezeKey(fn *ir.Func) []byte {
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	return appendMemoFuncKey(nil, fn, memoOptsOf(opts, &cfg))
}

// publishOne publishes a one-set vector for fn.
func publishOne(m *Memo, fn *ir.Func) { m.publish(freezeKey(fn), []BehaviorSet{{}}) }

// hasEntry reports whether fn's vector is resident, marking it used.
func hasEntry(m *Memo, fn *ir.Func) bool { return m.probe(freezeKey(fn)) != nil }

// TestMemoEvictsWhenFull: a full memo admits a new entry by evicting a
// cold one, sets and all, instead of refusing it.
func TestMemoEvictsWhenFull(t *testing.T) {
	m := NewMemo(1)
	a := ir.MustParseFunc(memoPairs[0].src)
	b := ir.MustParseFunc(memoPairs[1].src)

	publishOne(m, a)
	publishOne(m, b)
	if m.Len() != 1 || m.funcs.Len() != 1 {
		t.Fatalf("Len = %d sets in %d entries, want 1 in 1 (capacity)", m.Len(), m.funcs.Len())
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", m.Evictions())
	}
	if !hasEntry(m, b) {
		t.Error("newly admitted entry missing")
	}
	if hasEntry(m, a) {
		t.Error("cold entry survived eviction")
	}
}

// TestMemoSecondChance: the clock spares recently probed entries and
// evicts cold ones.
func TestMemoSecondChance(t *testing.T) {
	m := NewMemo(2)
	fns := []*ir.Func{
		ir.MustParseFunc(memoPairs[0].src),
		ir.MustParseFunc(memoPairs[1].src),
		ir.MustParseFunc(memoPairs[2].src),
	}
	publishOne(m, fns[0])
	publishOne(m, fns[1])
	// Probe the first entry so its reference bit protects it.
	if !hasEntry(m, fns[0]) {
		t.Fatal("warm entry missing before eviction")
	}
	publishOne(m, fns[2])

	if !hasEntry(m, fns[0]) {
		t.Error("recently probed entry was evicted despite its second chance")
	}
	if hasEntry(m, fns[1]) {
		t.Error("cold entry survived; clock should have chosen it as victim")
	}
}

// TestMemoSkipsIncomplete: incomplete behaviour sets depend on the
// enumeration bounds and are never cached. A target that loops on some
// inputs publishes a vector with gaps there, which later Checks
// recompute, and a target incomplete on every input publishes nothing.
func TestMemoSkipsIncomplete(t *testing.T) {
	opts := core.FreezeOptions()
	// The target spins where the source returns 0; both have UB on
	// poison.
	src := ir.MustParseFunc("define i2 @f(i2 %a) {\nentry:\n  %c = icmp eq i2 %a, 0\n  br i1 %c, label %zero, label %done\nzero:\n  ret i2 0\ndone:\n  ret i2 %a\n}")
	gappy := "define i2 @f(i2 %a) {\nentry:\n  %c = icmp eq i2 %a, 0\n  br i1 %c, label %spin, label %done\nspin:\n  br label %spin\ndone:\n  ret i2 %a\n}"
	looping := "define i2 @f(i2 %a) {\nentry:\n  br label %spin\nspin:\n  br label %spin\n}"

	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(0)
	res := Check(src, ir.MustParseFunc(looping), cfg)
	if res.Status != Inconclusive || res.InconclusiveInputs != res.Inputs-1 {
		t.Fatalf("looping target: %s, want every input but poison inconclusive", res)
	}
	if cfg.Memo.Len() != 0 || cfg.Memo.funcs.Len() != 0 {
		t.Errorf("an all-incomplete vector was published: %d sets in %d entries", cfg.Memo.Len(), cfg.Memo.funcs.Len())
	}

	var execs uint64
	cfg.ExecCount = &execs
	cold := Check(src, ir.MustParseFunc(gappy), cfg)
	gaps := cold.InconclusiveInputs
	if cold.Status != Inconclusive || gaps == 0 || gaps == cold.Inputs {
		t.Fatalf("gappy target: %s, want some inputs inconclusive", cold)
	}
	if got := cfg.Memo.Len(); got != cold.Inputs-gaps {
		t.Errorf("gappy vector holds %d sets, want the %d complete ones", got, cold.Inputs-gaps)
	}
	hits := cfg.Memo.Hits()
	execs = 0
	warm := Check(ir.MustParseFunc(src.String()), ir.MustParseFunc(gappy), cfg)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("memo changed verdict: %s, want %s", warm, cold)
	}
	if got := cfg.Memo.Hits() - hits; got != uint64(cold.Inputs-gaps) {
		t.Errorf("warm Check hit %d inputs, want the %d complete ones", got, cold.Inputs-gaps)
	}
	if execs == 0 {
		t.Error("warm Check recomputed nothing: the gaps were served from the memo")
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
		memo := NewMemo(1)
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
			t.Errorf("mode=%v: memo of size 1 saw no evictions; test is not exercising the clock", opts.Mode)
		}
		if got := memo.funcs.Len(); got > 1 {
			t.Errorf("mode=%v: %d function entries exceed capacity 1", opts.Mode, got)
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
	m.funcs.Range(func(_ string, e *memoEntry) { n += e.n })
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

// TestMemoWideMissGrowsOnDemand: an i16 target's vector has 2^16+
// slots, but a Check that refutes within a few inputs must neither
// allocate them all in its session nor publish a partial vector.
func TestMemoWideMissGrowsOnDemand(t *testing.T) {
	opts := core.FreezeOptions()
	src := ir.MustParseFunc("define i16 @f(i16 %a) {\nentry:\n  ret i16 %a\n}")
	tgt := ir.MustParseFunc("define i16 @f(i16 %a) {\nentry:\n  ret i16 7\n}")
	cfg := DefaultConfig(opts, opts)
	cfg.ExhaustiveInputBits = 16
	cfg.MaxInputs = 1 << 17
	cfg.Memo = NewMemo(0)
	cfg.Session = cfg.Memo.NewSession()
	res := Check(src, tgt, cfg)
	if res.Status != Refuted || res.Inputs > 16 {
		t.Fatalf("got %s after %d inputs, want an early refutation", res, res.Inputs)
	}
	if got := cap(cfg.Session.fresh); got > 2*res.Inputs {
		t.Errorf("session allocated %d target slots for %d inputs", got, res.Inputs)
	}
	if got := cap(cfg.Session.src.sets); got > 2*res.Inputs {
		t.Errorf("session allocated %d source slots for %d inputs", got, res.Inputs)
	}
	if cfg.Memo.funcs.Len() != 0 {
		t.Error("a refuted Check published a partial vector")
	}
}

// TestMemoEvictedEntryLeavesIndex: a Check already reading an evicted
// vector may finish with it, but the index forgets it: the next probe
// misses, and the next Check recomputes and republishes it.
func TestMemoEvictedEntryLeavesIndex(t *testing.T) {
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(1)
	a := memoPairs[0]
	b := memoPairs[2]

	want := Check(ir.MustParseFunc(a.src), ir.MustParseFunc(a.tgt), cfg)
	held := cfg.Memo.probe(freezeKey(ir.MustParseFunc(a.tgt)))
	if held == nil {
		t.Fatal("a's target was not published")
	}
	Check(ir.MustParseFunc(b.src), ir.MustParseFunc(b.tgt), cfg) // evicts a's entry
	if cfg.Memo.Evictions() != 1 || hasEntry(cfg.Memo, ir.MustParseFunc(a.tgt)) {
		t.Fatalf("evictions=%d: a's entry is still indexed", cfg.Memo.Evictions())
	}
	if held.n != want.Inputs || len(held.sets) != want.Inputs {
		t.Errorf("eviction changed a held vector: %d sets in %d slots", held.n, len(held.sets))
	}
	hits := cfg.Memo.Hits()
	if got := Check(ir.MustParseFunc(a.src), ir.MustParseFunc(a.tgt), cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict after eviction: %s, want %s", got, want)
	}
	if cfg.Memo.Hits() != hits {
		t.Error("a Check hit an evicted entry")
	}
	if !hasEntry(cfg.Memo, ir.MustParseFunc(a.tgt)) {
		t.Error("the recomputed vector was not republished")
	}
	if got, want := cfg.Memo.Len(), residentSets(cfg.Memo); got != want {
		t.Errorf("Len = %d, but the index holds %d sets", got, want)
	}
}

// TestMemoConcurrentEviction has workers check a rotating set of
// functions through a memo that holds only two entries, or fewer sets
// than one wide vector, so entries are evicted — to admit a new entry,
// or to meet the set budget — while other sessions are reading them or
// publishing beside them. Verdicts
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
		// Each i8 vector holds about 260 sets against a budget of
		// 128, so every publish evicts to meet it.
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
			// Parsed once per worker, so repeated Checks keep probing
			// the same keys while other workers evict and republish
			// them.
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

// TestMemoHitSkipsCompile: a Check whose every behaviour set is served
// — the source from the session's source vector, the target from the
// memo — never compiles either side. That is a campaign's second
// transform of a candidate whose target an earlier Check published.
func TestMemoHitSkipsCompile(t *testing.T) {
	opts := core.FreezeOptions()
	src := ir.MustParseFunc(memoPairs[0].src)
	tgt := ir.MustParseFunc(memoPairs[0].tgt)
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(0)
	cfg.Session = cfg.Memo.NewSession()
	cfg.Programs = core.NewProgramCache(0)
	var m CheckMetrics
	cfg.Metrics = &m

	cold := Check(src, tgt, cfg)
	if st := cfg.Programs.Stats(); st.Misses != 2 {
		t.Fatalf("cold Check compiled %d sides, want 2", st.Misses)
	}
	coldExecs := m.Engine.Execs
	before := cfg.Programs.Stats()
	// A fresh, textually identical target: the program cache is keyed
	// by pointer, so compiling it would show up as a miss.
	warm := Check(src, ir.MustParseFunc(memoPairs[0].tgt), cfg)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("memo changed verdict: %s, want %s", warm, cold)
	}
	after := cfg.Programs.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("all-served Check touched the program cache: %+v -> %+v", before, after)
	}
	if m.Engine.Execs != coldExecs {
		t.Errorf("all-served Check executed %d times", m.Engine.Execs-coldExecs)
	}
}
