package core_test

// Differential tests for the compiled execution engines: every
// function must produce exactly the interpreter's outcomes — same
// Outcome kind, same value, same UB message — under every semantics
// variant, for every resolution of nondeterminism. The three engines
// (tree-walking interpreter, closure engine, bytecode VM) run in
// lockstep on triplet enumeration oracles, so a divergence in *which*
// choice points are reached (not just in outcomes) also fails:
// behaviour-set equality downstream is byte-identical by construction
// only if the Choose-call sequences match.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tameir/internal/core"
	_ "tameir/internal/core/bytecode" // register the tier-2 backend
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
)

// diffVariants are the semantics under which the engines are compared:
// the paper's freeze proposal plus the §3 legacy knob settings that
// resolve its ambiguities in different directions.
func diffVariants() []struct {
	name string
	opts core.Options
} {
	legacySel := func(sp core.SelectPoisonBehavior, either bool) core.Options {
		o := core.LegacyOptions(core.BranchPoisonNondet)
		o.SelectPoisonCond = sp
		o.SelectArmPoisonEither = either
		return o
	}
	return []struct {
		name string
		opts core.Options
	}{
		{"freeze", core.FreezeOptions()},
		{"legacy-br-nondet", core.LegacyOptions(core.BranchPoisonNondet)},
		{"legacy-br-ub", core.LegacyOptions(core.BranchPoisonIsUB)},
		{"legacy-sel-ub", legacySel(core.SelectPoisonCondUB, true)},
		{"legacy-sel-nondet", legacySel(core.SelectPoisonCondNondet, true)},
		{"legacy-sel-chosen-arm", legacySel(core.SelectPoisonCondPoison, false)},
	}
}

// paramInputs enumerates the cartesian product of per-parameter
// candidate values: every concrete value of small int types, plus
// poison, plus undef under legacy semantics.
func paramInputs(fn *ir.Func, mode core.Mode) [][]core.Value {
	cands := make([][]core.Value, len(fn.Params))
	for i, p := range fn.Params {
		ty := p.Ty
		var vs []core.Value
		switch {
		case ty.IsInt() && ty.Bits <= 3:
			for v := uint64(0); v < 1<<ty.Bits; v++ {
				vs = append(vs, core.VC(ty, v))
			}
		case ty.IsInt():
			for _, v := range []uint64{0, 1, ir.TruncBits(^uint64(0), ty.Bits)} {
				vs = append(vs, core.VC(ty, v))
			}
		default:
			vs = append(vs, core.VPoison(ty))
		}
		if ty.IsInt() {
			vs = append(vs, core.VPoison(ty))
			if mode == core.Legacy {
				vs = append(vs, core.VUndef(ty))
			}
		}
		cands[i] = vs
	}
	var out [][]core.Value
	idx := make([]int, len(cands))
	for {
		args := make([]core.Value, len(cands))
		for i, j := range idx {
			args[i] = cands[i][j]
		}
		out = append(out, args)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(cands[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out
		}
	}
}

// outcomeKey renders everything observable about an outcome, including
// the UB/error message Outcome.String omits.
func outcomeKey(o core.Outcome) string {
	s := o.String()
	if o.Msg != "" {
		s += " | " + o.Msg
	}
	return s
}

// interpretSteps is core.Interpret that also reports the execution's
// step count.
func interpretSteps(fn *ir.Func, args []core.Value, o core.Oracle, opts core.Options) (core.Outcome, int) {
	env, err := core.NewEnv(fn.Parent(), o, opts)
	if err != nil {
		return core.Outcome{Kind: core.OutError, Msg: err.Error()}, 0
	}
	out := env.RunInterp(fn, args)
	return out, env.Steps
}

// runCounted runs one execution on an executor and returns the steps
// and cycle cuts it added to the executor's metrics.
func runCounted(ex *core.Executor, args []core.Value, o core.Oracle) (core.Outcome, uint64, uint64) {
	m := ex.Metrics()
	steps, cuts := m.Steps, m.CycleCuts
	out := ex.Run(args, o)
	return out, m.Steps - steps, m.CycleCuts - cuts
}

// diffOne sweeps all three engines through the full oracle enumeration
// on one (function, input) and fails on the first divergence: outcome,
// oracle enumeration, or per-execution step count. The two compiled
// engines must also fast-forward exactly the same executions. It
// returns how many executions they fast-forwarded.
func diffOne(t *testing.T, label string, fn *ir.Func, ex, exB *core.Executor, args []core.Value, opts core.Options) (cuts uint64) {
	t.Helper()
	const maxChoices, maxFanout = 16, 1 << 8
	oi := core.NewEnumOracle(maxChoices, maxFanout)
	oc := core.NewEnumOracle(maxChoices, maxFanout)
	ob := core.NewEnumOracle(maxChoices, maxFanout)
	for exec := 0; ; exec++ {
		if exec > 1<<14 {
			// Undef-heavy functions can have more resolutions than worth
			// sweeping (refine stops here too, via MaxExecs); every
			// execution so far was compared, which is the point.
			return cuts
		}
		oi.Reset()
		oc.Reset()
		ob.Reset()
		outI, stepsI := interpretSteps(fn, args, oi, opts)
		outC, stepsC, cutC := runCounted(ex, args, oc)
		outB, stepsB, cutB := runCounted(exB, args, ob)
		ki, kc, kb := outcomeKey(outI), outcomeKey(outC), outcomeKey(outB)
		if ki != kc || ki != kb {
			t.Fatalf("%s: args %v exec %d:\ninterpreted: %s\ncompiled:    %s\nbytecode:    %s\n%s",
				label, args, exec, ki, kc, kb, fn)
		}
		if uint64(stepsI) != stepsC || uint64(stepsI) != stepsB {
			t.Fatalf("%s: args %v exec %d: steps diverge (interp %d, compiled %d, bytecode %d)\n%s",
				label, args, exec, stepsI, stepsC, stepsB, fn)
		}
		if cutC != cutB {
			t.Fatalf("%s: args %v exec %d: cycle cuts diverge (compiled %d, bytecode %d)\n%s",
				label, args, exec, cutC, cutB, fn)
		}
		cuts += cutC
		ni, nc, nb := oi.Next(), oc.Next(), ob.Next()
		if ni != nc || ni != nb {
			t.Fatalf("%s: args %v exec %d: oracle enumeration diverged (interp next=%t, compiled next=%t, bytecode next=%t) — the engines take different Choose sequences\n%s",
				label, args, exec, ni, nc, nb, fn)
		}
		if !ni {
			break
		}
	}
	if oi.Overflowed != oc.Overflowed || oi.Overflowed != ob.Overflowed {
		t.Fatalf("%s: args %v: overflow flags diverge (interp %t, compiled %t, bytecode %t)\n%s",
			label, args, oi.Overflowed, oc.Overflowed, ob.Overflowed, fn)
	}
	return cuts
}

// diffFunc compiles fn once and lockstep-compares every input across
// the interpreter, the closure engine, and the bytecode tier. It
// returns how many executions the compiled engines fast-forwarded.
func diffFunc(t *testing.T, label string, fn *ir.Func, opts core.Options) (cuts uint64) {
	t.Helper()
	prog := core.Compile(fn, opts)
	ex := core.NewExecutor(prog)
	exB := core.NewExecutor(prog)
	exB.SetTier(core.TierPolicy{Mode: core.TierBytecode})
	first := true
	for _, args := range paramInputs(fn, opts.Mode) {
		cuts += diffOne(t, label, fn, ex, exB, args, opts)
		if first {
			// A silent fallback to the closure engine would make the
			// three-way comparison vacuous; every test function must
			// actually lower.
			if got := exB.ActiveTier(); got != "bytecode" {
				t.Fatalf("%s: tier executor runs on %q, want bytecode\n%s", label, got, fn)
			}
			first = false
		}
	}
	return cuts
}

// cutWant pins whether the compiled engines fast-forward a corpus
// function's executions (see core.CycleDetector).
type cutWant uint8

const (
	cutAny  cutWant = iota // not pinned
	cutSome                // every variant fast-forwards some execution
	cutNone                // no execution is ever fast-forwarded
)

// refineFuel is refine's default per-execution fuel, the budget the
// campaigns' loops actually run against.
const refineFuel = 4096

// compiledCorpus is hand-written IR hitting the constructs the
// exhaustive and random generators cannot produce: phis (including
// swap patterns and poison incomings), loops, memory, gep, globals,
// vectors, casts and calls — and loops that never return, which the
// compiled engines fast-forward once they provably cycle.
var compiledCorpus = []struct {
	name       string
	src        string
	legacyOnly bool    // uses undef, which the freeze dialect rejects
	fuel       int     // per-execution fuel; 0 keeps the default
	cuts       cutWant // fast-forwarding the function must show
}{
	{name: "phi-merge", src: `define i2 @f(i2 %a, i2 %b) {
entry:
  %c = icmp ult i2 %a, %b
  br i1 %c, label %t, label %e
t:
  %x = add i2 %a, 1
  br label %done
e:
  %y = mul i2 %b, 2
  br label %done
done:
  %r = phi i2 [ %x, %t ], [ %y, %e ]
  ret i2 %r
}`},
	{name: "phi-poison-incoming", src: `define i2 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %done
e:
  br label %done
done:
  %r = phi i2 [ poison, %t ], [ 2, %e ]
  ret i2 %r
}`},
	{name: "phi-undef-incoming", legacyOnly: true, src: `define i2 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %done
e:
  br label %done
done:
  %r = phi i2 [ undef, %t ], [ 1, %e ]
  %s = xor i2 %r, %r
  ret i2 %s
}`},
	{name: "phi-swap-loop", src: `define i2 @f(i2 %n) {
entry:
  br label %loop
loop:
  %a = phi i2 [ 0, %entry ], [ %b, %loop ]
  %b = phi i2 [ 1, %entry ], [ %a, %loop ]
  %i = phi i2 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i2 %i, 1
  %c = icmp ult i2 %i1, %n
  br i1 %c, label %loop, label %done
done:
  ret i2 %a
}`},
	{name: "loop-store-load", src: `define i8 @f(i2 %n) {
entry:
  %a = alloca i8, i32 4
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %w = zext i2 %n to i8
  %c = icmp ult i8 %i, %w
  br i1 %c, label %body, label %done
body:
  %p = getelementptr i8, ptr %a, i8 %i
  store i8 %i, ptr %p
  %i1 = add i8 %i, 1
  br label %loop
done:
  %p0 = getelementptr i8, ptr %a, i8 0
  %v = load i8, ptr %p0
  ret i8 %v
}`},
	{name: "oob-gep-ub", src: `define i8 @f(i2 %i) {
entry:
  %a = alloca i8, i32 2
  %z = zext i2 %i to i8
  %p = getelementptr i8, ptr %a, i8 %z
  %v = load i8, ptr %p
  ret i8 %v
}`},
	{name: "branch-on-poison", src: `define i2 @f(i2 %x) {
entry:
  %c = icmp eq i2 poison, %x
  br i1 %c, label %t, label %e
t:
  ret i2 1
e:
  ret i2 2
}`},
	{name: "branch-on-undef", legacyOnly: true, src: `define i2 @f() {
entry:
  %c = icmp eq i2 undef, 0
  br i1 %c, label %t, label %e
t:
  ret i2 1
e:
  ret i2 2
}`},
	{name: "select-knobs", src: `define i2 @f(i2 %x, i2 %y) {
entry:
  %c = icmp sgt i2 %x, %y
  %s = select i1 %c, i2 %x, i2 poison
  %u = select i1 poison, i2 %s, i2 %y
  ret i2 %u
}`},
	{name: "freeze-chain", src: `define i2 @f(i2 %a) {
entry:
  %x = freeze i2 %a
  %y = xor i2 %x, %x
  %z = freeze i2 poison
  %r = or i2 %y, %z
  ret i2 %r
}`},
	{name: "vector-lanes", src: `define <2 x i2> @f(i2 %a) {
entry:
  %v = insertelement <2 x i2> <i2 1, i2 poison>, i2 %a, i32 0
  %w = add <2 x i2> %v, <i2 1, i2 1>
  ret <2 x i2> %w
}`},
	{name: "vector-extract-oob", src: `define i2 @f(i2 %i) {
entry:
  %z = zext i2 %i to i32
  %e = extractelement <2 x i2> <i2 1, i2 2>, i32 %z
  ret i2 %e
}`},
	{name: "bitcast-poison-smear", src: `define i8 @f() {
entry:
  %b = bitcast <8 x i1> <i1 1, i1 0, i1 poison, i1 0, i1 0, i1 0, i1 0, i1 0> to i8
  ret i8 %b
}`},
	{name: "casts", src: `define i8 @f(i2 %a) {
entry:
  %z = zext i2 %a to i8
  %s = sext i2 %a to i8
  %x = xor i8 %z, %s
  %t = trunc i8 %x to i2
  %r = zext i2 %t to i8
  ret i8 %r
}`},
	{name: "udiv-by-zero-ub", src: `define i2 @f(i2 %a, i2 %b) {
entry:
  %q = udiv i2 %a, %b
  ret i2 %q
}`},
	{name: "nsw-nuw-exact", src: `define i2 @f(i2 %a, i2 %b) {
entry:
  %x = add nsw i2 %a, %b
  %y = mul nuw i2 %x, %b
  %z = lshr exact i2 %y, %a
  ret i2 %z
}`},
	{name: "call-chain", src: `define i2 @sq(i2 %x) {
entry:
  %m = mul i2 %x, %x
  ret i2 %m
}
define i2 @f(i2 %a) {
entry:
  %r = call i2 @sq(i2 %a)
  %s = add i2 %r, 1
  %t = call i2 @sq(i2 %s)
  ret i2 %t
}`},
	{name: "recursion", src: `define i8 @fact(i8 %n) {
entry:
  %z = icmp eq i8 %n, 0
  br i1 %z, label %base, label %rec
base:
  ret i8 1
rec:
  %n1 = sub i8 %n, 1
  %r = call i8 @fact(i8 %n1)
  %m = mul i8 %n, %r
  ret i8 %m
}
define i8 @f(i2 %a) {
entry:
  %w = zext i2 %a to i8
  %r = call i8 @fact(i8 %w)
  ret i8 %r
}`},
	{name: "globals", src: `@tab = global 4 init 10 20 30
define i8 @f(i2 %i) {
entry:
  %z = zext i2 %i to i32
  %p = getelementptr i8, ptr @tab, i32 %z
  %v = load i8, ptr %p
  ret i8 %v
}`},
	{name: "uninit-load", src: `define i8 @f() {
entry:
  %a = alloca i8, i32 1
  %v = load i8, ptr %a
  ret i8 %v
}`},
	{name: "store-poison-ptr", src: `define void @f(i2 %x) {
entry:
  store i2 %x, ptr poison
  ret void
}`},
	{name: "unreachable", src: `define i2 @f(i1 %c) {
entry:
  br i1 %c, label %t, label %e
t:
  unreachable
e:
  ret i2 3
}`},
	{name: "infinite-loop-fuel", fuel: 500, cuts: cutSome, src: `define void @f() {
entry:
  br label %loop
loop:
  br label %loop
}`},
	// The mutate pattern: an undef read on every iteration keeps the
	// oracle busy for 16 iterations (96 steps, past the detector's
	// arming point) while the frame state already repeats; only once
	// the oracle is settled may the loop be cut. The executions whose
	// last choice is 1 leave the loop, so a detector that ignored
	// unsettled choices would turn their return into a timeout.
	{name: "undef-loop-settles", legacyOnly: true, fuel: refineFuel, cuts: cutSome, src: `define i8 @f() {
entry:
  br label %loop
loop:
  %n = phi i8 [ 0, %entry ], [ %n3, %loop ]
  %u = icmp eq i1 undef, 1
  %n1 = add i8 %n, 3
  %n2 = mul i8 %n1, 0
  %n3 = or i8 %n2, %n
  %z = and i8 %n3, 0
  br i1 %u, label %done, label %loop
done:
  ret i8 %n
}`},
	{name: "phi-rotate-3", fuel: refineFuel, cuts: cutSome, src: `define i2 @f(i2 %x) {
entry:
  br label %loop
loop:
  %a = phi i2 [ %x, %entry ], [ %b, %loop ]
  %b = phi i2 [ 1, %entry ], [ %c, %loop ]
  %c = phi i2 [ 2, %entry ], [ %a, %loop ]
  %s = select i1 true, i2 %a, i2 %b
  br label %loop
}`},
	// 200 iterations, 600 steps: long enough to arm the detector, and
	// the counter never repeats, so it must run to its return.
	{name: "counter-loop-returns", fuel: refineFuel, cuts: cutNone, src: `define i8 @f(i2 %n) {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i8 %i, 1
  %c = icmp ult i8 %i1, 200
  br i1 %c, label %loop, label %done
done:
  %z = zext i2 %n to i8
  %r = add i8 %i1, %z
  ret i8 %r
}`},
	// An i8 counter that wraps: period 256, found once Brent's snapshot
	// interval reaches it.
	{name: "counter-loop-wraps", fuel: refineFuel, cuts: cutSome, src: `define i8 @f() {
entry:
  br label %loop
loop:
  %i = phi i8 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i8 %i, 1
  %c = icmp ult i8 %i1, 0
  br i1 %c, label %done, label %loop
done:
  ret i8 %i1
}`},
	{name: "loop-calls-helper", fuel: refineFuel, cuts: cutSome, src: `define i2 @h(i2 %x) {
entry:
  %y = xor i2 %x, 1
  ret i2 %y
}
define void @f() {
entry:
  br label %loop
loop:
  %p = phi i2 [ 0, %entry ], [ %q, %loop ]
  %q = call i2 @h(i2 %p)
  br label %loop
}`},
	// Memory is not in the snapshot, so detection is off.
	{name: "loop-stores-alloca", fuel: refineFuel, cuts: cutNone, src: `define void @f() {
entry:
  %p = alloca i8, i32 1
  br label %loop
loop:
  store i8 1, ptr %p
  br label %loop
}`},
	{name: "vector-phi-loop", fuel: refineFuel, cuts: cutSome, src: `define <2 x i2> @f(i2 %a) {
entry:
  %v0 = insertelement <2 x i2> <i2 0, i2 1>, i2 %a, i32 0
  br label %loop
loop:
  %v = phi <2 x i2> [ %v0, %entry ], [ %w, %loop ]
  %w = xor <2 x i2> %v, <i2 1, i2 1>
  br label %loop
}`},
	// Until the exit only vector registers change (the scalars %b and
	// %t are constant), so a detector that skipped vector registers
	// would cut this terminating loop.
	{name: "vector-counter-returns", fuel: refineFuel, cuts: cutNone, src: `define i8 @f() {
entry:
  br label %loop
loop:
  %v = phi <2 x i8> [ <i8 0, i8 0>, %entry ], [ %w, %loop ]
  %w = add <2 x i8> %v, <i8 1, i8 0>
  %c = icmp eq <2 x i8> %w, <i8 100, i8 0>
  %b = bitcast <2 x i1> %c to i2
  %t = icmp eq i2 %b, 3
  br i1 %t, label %done, label %loop
done:
  %e = extractelement <2 x i8> %w, i32 0
  ret i8 %e
}`},
}

// TestCompiledMatchesInterpreter is the engine-parity property test
// demanded by the compile/run split: compiled execution must be
// observationally identical to interpretation, outcome for outcome and
// choice for choice.
func TestCompiledMatchesInterpreter(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		for _, tc := range compiledCorpus {
			m, err := ir.ParseModule(tc.src)
			if err != nil {
				t.Fatalf("%s: parse: %v", tc.name, err)
			}
			fn := m.Funcs[len(m.Funcs)-1]
			for _, v := range diffVariants() {
				if tc.legacyOnly && v.opts.Mode == core.Freeze {
					continue
				}
				opts := v.opts
				if tc.fuel != 0 {
					opts.Fuel = tc.fuel
				}
				cuts := diffFunc(t, tc.name+"/"+v.name, fn, opts)
				switch {
				case tc.cuts == cutSome && cuts == 0:
					t.Errorf("%s/%s: no execution was fast-forwarded", tc.name, v.name)
				case tc.cuts == cutNone && cuts != 0:
					t.Errorf("%s/%s: %d executions fast-forwarded, want none", tc.name, v.name, cuts)
				}
			}
		}
	})

	t.Run("exhaustive-straightline", func(t *testing.T) {
		// A deterministic stride through the 3-instruction space keeps
		// runtime bounded while sampling all template regions.
		gen := optfuzz.DefaultConfig(3)
		gen.AllowPoison = true
		gen.EnumAttrs = true
		const want, stride = 120, 997
		var fns []*ir.Func
		n := 0
		optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
			if n%stride == 0 {
				fns = append(fns, ir.CloneFunc(f))
			}
			n++
			return len(fns) < want
		})
		if len(fns) < want/2 {
			t.Fatalf("sampled only %d functions", len(fns))
		}
		for i, fn := range fns {
			for _, v := range diffVariants() {
				diffFunc(t, fmt.Sprintf("exhaustive[%d]/%s", i, v.name), fn, v.opts)
			}
		}
	})

	t.Run("random-cfg", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20170619)) // PLDI'17 et al.
		rcfg := optfuzz.DefaultRandomConfig()
		rcfg.AllowPoison = true
		for i := 0; i < 80; i++ {
			fn := optfuzz.Random(rng, rcfg)
			for _, v := range diffVariants() {
				if v.opts.Mode == core.Freeze {
					continue // random functions may embed undef leaves
				}
				diffFunc(t, fmt.Sprintf("random[%d]/%s", i, v.name), fn, v.opts)
			}
		}
		// Freeze-dialect round without undef leaves.
		rcfg.AllowUndef = false
		for i := 0; i < 40; i++ {
			fn := optfuzz.Random(rng, rcfg)
			diffFunc(t, fmt.Sprintf("random-freeze[%d]", i), fn, core.FreezeOptions())
		}
	})
}

// TestProgramSharedAcrossGoroutines exercises the frame and executor
// pools: one compiled Program driven concurrently must give every
// goroutine the serial answer. Run under -race in CI.
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	m, err := ir.ParseModule(compiledCorpus[4].src) // loop-store-load: memory + phis
	if err != nil {
		t.Fatal(err)
	}
	fn := m.Funcs[0]
	opts := core.FreezeOptions()
	prog := core.Compile(fn, opts)

	inputs := paramInputs(fn, opts.Mode)
	want := make([]string, len(inputs))
	for i, args := range inputs {
		want[i] = outcomeKey(core.Interpret(fn, args, core.ZeroOracle{}, opts))
	}

	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(inputs)
				out := prog.Exec(inputs[i], core.ZeroOracle{})
				if got := outcomeKey(out); got != want[i] {
					errs <- fmt.Sprintf("worker %d round %d input %v: got %s, want %s", w, r, inputs[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
