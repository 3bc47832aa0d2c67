// Package refine is an Alive-style translation validator for the IR:
// it decides whether a transformed function refines the original one.
//
// Where Alive (Lopes et al., PLDI 2015) encodes the question for an SMT
// solver, this package exhaustively enumerates — all inputs over small
// bitwidths, and for each input all resolutions of the semantics'
// nondeterminism (undef reads, freeze choices, nondeterministic
// branches) via core.EnumOracle. At the scale of the paper's Section 6
// experiment ("all LLVM functions with three instructions over 2-bit
// integer arithmetic") enumeration is complete, so the verdicts are
// exact.
//
// The refinement order is the standard one:
//
//	UB  ⊒  poison  ⊒  undef  ⊒  any concrete value
//
// A target behaviour set refines a source behaviour set when the source
// admits UB, or when every target behaviour is covered by some source
// behaviour under that order (and the target has no UB of its own).
package refine

import (
	"fmt"
	"slices"
	"strings"

	"tameir/internal/core"
	_ "tameir/internal/core/bytecode" // link the bytecode tier backend
	"tameir/internal/ir"
	"tameir/internal/telemetry"
)

// BehaviorSet is the set of observable outcomes of one function on one
// input, over all resolutions of nondeterminism.
type BehaviorSet struct {
	// UB: some execution triggers immediate UB.
	UB bool
	// Poison: some execution returns poison (any lane).
	Poison bool
	// Undef: some execution returns a value with an undef lane.
	Undef bool
	// Void: the function returned normally with no value.
	Void bool
	// Incomplete: enumeration hit a resource bound (fuel, choice
	// count, fanout); the set may be missing behaviours and any
	// verdict based on it is inconclusive.
	Incomplete bool
	// RetBits is the total bitwidth of the return type (0 for void or
	// types wider than 20 bits); used to recognize when Rets covers the
	// whole domain, which makes the set equivalent to one containing
	// undef. A byte keeps the set at four words, which the memo stores
	// by the million.
	RetBits uint8
	// Rets: concrete return values (see RetSet for the two
	// representations).
	Rets RetSet
}

// coversAllConcretes reports whether Rets contains every value of the
// return type.
func (b BehaviorSet) coversAllConcretes() bool {
	return b.RetBits > 0 && b.RetBits <= 20 && uint64(b.Rets.Len()) == uint64(1)<<b.RetBits
}

// String summarizes the set for diagnostics.
func (b BehaviorSet) String() string {
	return string(b.AppendTo(nil))
}

// AppendTo appends the String rendering of b to dst: the flags, the
// sorted return keys, "ret void" and "(incomplete)", comma-separated in
// braces.
func (b BehaviorSet) AppendTo(dst []byte) []byte {
	dst = append(dst, '{')
	start := len(dst)
	part := func(p string) {
		if len(dst) > start {
			dst = append(dst, ", "...)
		}
		dst = append(dst, p...)
	}
	if b.UB {
		part("UB")
	}
	if b.Poison {
		part("poison")
	}
	if b.Undef {
		part("undef")
	}
	b.Rets.Each(part)
	if b.Void {
		part("ret void")
	}
	if b.Incomplete {
		part("(incomplete)")
	}
	return append(dst, '}')
}

// Config bounds the enumeration.
type Config struct {
	// SrcOpts / TgtOpts are the semantics each side runs under. They
	// usually coincide; they differ when validating a legacy→freeze
	// migration.
	SrcOpts core.Options
	TgtOpts core.Options

	// MaxChoices bounds oracle choice points per execution.
	MaxChoices int
	// MaxFanout bounds a single nondeterministic choice.
	MaxFanout uint64
	// MaxExecs bounds executions per (function, input).
	MaxExecs int
	// MaxInputs bounds the number of input tuples tried.
	MaxInputs int
	// Fuel bounds steps per execution (overrides the options' fuel).
	Fuel int

	// ExhaustiveInputBits is the widest integer parameter whose inputs
	// are enumerated exhaustively (0 means the default, 4). Raising it
	// lets wider-bitwidth campaigns (i8 parameters: 256 values + the
	// deferred-UB inputs) keep Exhaustive verdicts instead of degrading
	// to sampling; the input count grows as 2^bits per parameter, so
	// raise MaxInputs to match. Part of the memo key: behaviour-set
	// ordinals depend on the input enumeration this governs.
	ExhaustiveInputBits uint

	// Memo, when non-nil, caches behaviour sets by canonical
	// (function, semantics, input) key so structurally identical
	// candidates skip re-computation. A memo hit never changes a
	// verdict (keys are full canonical strings, not hashes). One Memo
	// may be shared by every worker of a campaign; each goroutine must
	// then also carry its own Session.
	Memo *Memo

	// Session is this goroutine's handle on Memo. Check creates a
	// private one when Memo is set and Session is nil, which is fine
	// for one-off checks; loops over many checks should create one
	// session per worker (Memo.NewSession) and reuse it, or the memo's
	// function-identity fast path never warms up.
	Session *MemoSession

	// Oracle, when non-nil, is reused across executions instead of
	// allocating a fresh enumeration oracle per behaviour set. It must
	// not be shared between goroutines.
	Oracle *core.EnumOracle

	// Interpret forces the legacy tree-walking interpreter instead of
	// the compiled engine. The two are behaviourally identical
	// (TestCompiledMatchesInterpreter); the switch exists for the
	// tame-bench twin-row comparison and as an escape hatch.
	Interpret bool

	// Tier selects the execution tier policy for the compiled engine
	// (ignored when Interpret is set). The zero value pins the closure
	// engine; DefaultConfig uses TierAuto so hot candidates promote to
	// the bytecode VM. All tiers are behaviourally identical
	// (TestCompiledMatchesInterpreter runs three-way lockstep), so the
	// policy never affects verdicts — only throughput.
	Tier core.TierPolicy

	// Programs, when non-nil, caches compiled programs across checks
	// keyed by (*ir.Func, Options). The cache trusts function pointers
	// (see core.ProgramCache's no-mutation contract): set it only when
	// checked functions are never mutated after first compilation.
	// When nil, Check compiles each side at most once per call.
	Programs *core.ProgramCache

	// ExecCount, when non-nil, is incremented by the number of
	// executions actually performed (memo hits contribute nothing).
	ExecCount *uint64

	// Metrics, when non-nil, accumulates validator counters (checks,
	// inputs, behaviour-set provenance and sizes, engine work). It is
	// owned by the calling goroutine: campaigns carry one per shard and
	// merge in shard order.
	Metrics *CheckMetrics

	// BehaviorHook, when non-nil, observes every behaviour set Check
	// consumes — computed or memo-hit — in deterministic order. Used by
	// tame-bench to fingerprint engine equivalence and by the mutation
	// fuzzer to derive coverage digests.
	BehaviorHook func(BehaviorSet)

	// Trace, when non-nil, records per-phase spans inside every Check:
	// "behaviors_src" / "behaviors_tgt" around each input's
	// behaviour-set derivation, and "compile" around a side's executor
	// setup, nested in the behaviours span of its first memo miss.
	// The spans cost a clock read per phase on the hot path, so
	// campaigns leave this nil unless they are traced (-trace). A traced
	// scope (Scope.WithTrace) additionally lands the spans in the
	// flight recorder and emits "tier_promote" instants when an
	// executor switches to the tier-2 runner.
	Trace *telemetry.Scope
}

// DefaultConfig is tuned for the Section 6 experiment: 2-bit
// arithmetic, up to a handful of instructions.
func DefaultConfig(srcOpts, tgtOpts core.Options) Config {
	return Config{
		SrcOpts:    srcOpts,
		TgtOpts:    tgtOpts,
		MaxChoices: 16,
		MaxFanout:  1 << 8,
		MaxExecs:   1 << 14,
		MaxInputs:  1 << 16,
		Fuel:       4096,
		Tier:       core.TierPolicy{Mode: core.TierAuto},
	}
}

// Behaviors computes the behaviour set of fn on args by exhaustive
// oracle enumeration, consulting cfg.Memo first when one is set. On a
// miss the function is compiled (core.Compile) and the resulting
// program's frame and memory are reused across the whole sweep; set
// cfg.Interpret to force the legacy interpreter instead.
func Behaviors(fn *ir.Func, args []core.Value, opts core.Options, cfg Config) BehaviorSet {
	if cfg.Memo != nil && cfg.Session == nil {
		cfg.Session = cfg.Memo.NewSession()
	}
	return behaviorsAt(&side{fn: fn, opts: opts}, args, -1, &cfg)
}

// side is one function under check with the semantics it runs under
// and its executor, which is built at the side's first memo miss: a
// side whose every behaviour set comes from the memo is never
// compiled.
type side struct {
	fn     *ir.Func
	opts   core.Options
	ex     *core.Executor
	entry  *memoFuncEntry // resolved at the first memo lookup
	inputs int            // size of Check's input enumeration; 0 outside Check
}

// executor returns the side's executor, compiling it on first use
// inside a "compile" span; nil under cfg.Interpret.
func (s *side) executor(cfg *Config) *core.Executor {
	if s.ex == nil && !cfg.Interpret {
		sp := cfg.Trace.Start("compile")
		s.ex = cfg.executor(s.fn, s.opts)
		sp.End()
	}
	return s.ex
}

// foldMetrics adds the engine counters of a compiled side to m.
func (s *side) foldMetrics(m *CheckMetrics) {
	if s.ex != nil {
		m.Engine.Add(*s.ex.Metrics())
	}
}

// executor compiles fn under opts (with cfg.Fuel applied, matching the
// override the enumeration loop applies on the interpreted path) and
// wraps the program in an Executor whose frame pool and memory are
// reused across every execution of the sweep.
func (cfg Config) executor(fn *ir.Func, opts core.Options) *core.Executor {
	if cfg.Fuel > 0 {
		opts.Fuel = cfg.Fuel
	}
	var p *core.Program
	if cfg.Programs != nil {
		p = cfg.Programs.Get(fn, opts)
	} else {
		p = core.Compile(fn, opts)
	}
	ex := core.NewExecutor(p)
	ex.SetTier(cfg.Tier)
	if cfg.Trace.Traced() {
		tr := cfg.Trace
		ex.Events = func(name string, args ...string) { tr.Instant(name, args...) }
	}
	return ex
}

// behaviorsAt is the enumeration core: on a memo miss it sweeps the
// oracle through every resolution of nondeterminism, executing on the
// side's executor, or on the tree-walking interpreter under
// cfg.Interpret. ordinal, when non-negative, is the input vector's
// position in Check's deterministic enumeration, unlocking the memo's
// string-free fast path; -1 means "unknown". Memo traffic goes through
// cfg.Session (the public entry points create one from cfg.Memo when
// needed).
func behaviorsAt(sd *side, args []core.Value, ordinal int, cfg *Config) BehaviorSet {
	fn, opts := sd.fn, sd.opts
	var memoRef memoRef
	if cfg.Session != nil {
		var set BehaviorSet
		var ok bool
		memoRef, set, ok = cfg.Session.lookup(sd, args, ordinal, cfg)
		if ok {
			cfg.Metrics.observe(set, true, 0)
			if cfg.BehaviorHook != nil {
				cfg.BehaviorHook(set)
			}
			return set
		}
	}
	ex := sd.executor(cfg)
	set := BehaviorSet{Rets: newRetSet(fn.RetTy)}
	if !fn.RetTy.IsVoid() && fn.RetTy.Bitwidth() <= 20 {
		set.RetBits = uint8(fn.RetTy.Bitwidth())
	}
	o := cfg.Oracle
	if o == nil {
		o = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
	} else {
		o.Clear(cfg.MaxChoices, cfg.MaxFanout)
	}
	if cfg.Fuel > 0 {
		opts.Fuel = cfg.Fuel
	}
	execs := 0
	// Scratch for rendering keyed return values: a repeated value costs
	// a map probe, not a string.
	var keyArr [32]byte
	keyBuf := keyArr[:0]
	for {
		if execs >= cfg.MaxExecs {
			set.Incomplete = true
			break
		}
		execs++
		o.Reset()
		var out core.Outcome
		if ex != nil {
			// The outcome is consumed before the next execution, so its
			// lanes may stay in the executor's scratch.
			out = ex.RunScratch(args, o)
		} else {
			out = core.Interpret(fn, args, o, opts)
		}
		switch out.Kind {
		case core.OutUB:
			set.UB = true
		case core.OutTimeout:
			set.Incomplete = true
		case core.OutError:
			// Malformed IR is a harness bug; surface loudly.
			panic(fmt.Sprintf("refine: execution error on @%s: %s", fn.Name(), out.Msg))
		case core.OutRet:
			switch {
			case out.Val.Ty.IsVoid():
				set.Void = true
			case out.Val.AnyPoison():
				set.Poison = true
			case !out.Val.IsConcrete():
				set.Undef = true
			default:
				keyBuf = set.Rets.add(out.Val, keyBuf)
			}
		}
		if !o.Next() {
			break
		}
	}
	if o.Overflowed {
		set.Incomplete = true
	}
	if cfg.ExecCount != nil {
		*cfg.ExecCount += uint64(execs)
	}
	cfg.Metrics.observe(set, false, uint64(execs))
	if cfg.Session != nil {
		memoRef.inputs = sd.inputs
		cfg.Session.store(memoRef, set)
	}
	if cfg.BehaviorHook != nil {
		cfg.BehaviorHook(set)
	}
	return set
}

// Refines reports whether behaviour set tgt refines src, with a reason
// when it does not. Incomplete sets yield (false, "inconclusive: ...").
func Refines(src, tgt BehaviorSet) (bool, string) {
	if src.UB {
		return true, "" // source UB justifies anything
	}
	if src.Incomplete || tgt.Incomplete {
		return false, "inconclusive: behaviour enumeration incomplete"
	}
	if tgt.UB {
		return false, "target has UB, source does not"
	}
	if tgt.Poison && !src.Poison {
		return false, "target returns poison, source cannot"
	}
	if tgt.Undef && !src.Poison && !src.Undef && !src.coversAllConcretes() {
		return false, "target returns undef, source returns neither undef nor poison"
	}
	if src.Poison || src.Undef {
		return true, "" // deferred UB in source covers every concrete value
	}
	// Report the smallest missing value so the counterexample is
	// deterministic.
	if missing, ok := tgt.Rets.MissingFrom(src.Rets); ok {
		return false, "target can return " + missing + ", source cannot"
	}
	if tgt.Void && !src.Void {
		return false, "target returns void, source never returns"
	}
	return true, ""
}

// Status is the verdict of a refinement check.
type Status uint8

const (
	// Verified: the target refines the source on every input tried.
	Verified Status = iota
	// Refuted: a counterexample input was found.
	Refuted
	// Inconclusive: no counterexample, but some inputs could not be
	// fully enumerated (or the input space was sampled, not covered).
	Inconclusive
)

// String returns the verdict name.
func (s Status) String() string {
	switch s {
	case Verified:
		return "verified"
	case Refuted:
		return "refuted"
	}
	return "inconclusive"
}

// CounterExample records a refinement violation.
type CounterExample struct {
	Args   []core.Value
	Src    BehaviorSet
	Tgt    BehaviorSet
	Reason string
}

// String formats the counterexample.
func (c *CounterExample) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("args(%s): src=%s tgt=%s: %s",
		strings.Join(args, ", "), c.Src, c.Tgt, c.Reason)
}

// Result is the outcome of Check.
type Result struct {
	Status Status
	// Exhaustive: the input space was fully covered (all parameter
	// types were exhaustively enumerable).
	Exhaustive bool
	// Inputs is the number of input tuples checked.
	Inputs int
	// InconclusiveInputs counts inputs whose behaviour sets were
	// incomplete.
	InconclusiveInputs int
	// CE is the first counterexample found (Status == Refuted).
	CE *CounterExample
}

// String summarizes the result.
func (r Result) String() string {
	s := r.Status.String()
	if r.Status == Verified && r.Exhaustive {
		s += " (exhaustive)"
	}
	s += fmt.Sprintf(", %d inputs", r.Inputs)
	if r.InconclusiveInputs > 0 {
		s += fmt.Sprintf(" (%d inconclusive)", r.InconclusiveInputs)
	}
	if r.CE != nil {
		s += ": " + r.CE.String()
	}
	return s
}

// Check decides whether tgt refines src. The functions must have
// matching signatures. Inputs are enumerated exhaustively for small
// types (including poison, and undef under legacy source semantics);
// wider types are sampled and the verdict degrades to Inconclusive if
// no counterexample appears.
//
// Each side is compiled at most once (or fetched from cfg.Programs),
// at its first memo miss, and executed through a pooled frame across
// the rest of the input×oracle sweep, so the per-execution cost is
// dispatch, not setup. A side the memo answers on every input is never
// compiled.
func Check(src, tgt *ir.Func, cfg Config) Result {
	if len(src.Params) != len(tgt.Params) {
		panic("refine: signature mismatch")
	}
	for i := range src.Params {
		if !src.Params[i].Ty.Equal(tgt.Params[i].Ty) {
			panic("refine: parameter type mismatch")
		}
	}
	if cfg.Memo != nil && cfg.Session == nil {
		cfg.Session = cfg.Memo.NewSession()
	}
	// The input bookkeeping lives on the stack for the common case of a
	// few parameters.
	var spaceBuf [4]paramSpace
	var digitBuf [4]inputDigit
	spaces, exhaustive, inputs := spaceBuf[:0], true, 1
	for _, p := range src.Params {
		ps, ex := paramSpaceOf(p.Ty, cfg.SrcOpts.Mode, cfg.ExhaustiveInputBits)
		spaces = append(spaces, ps)
		exhaustive = exhaustive && ex
		inputs = min(inputs*ps.size(), cfg.MaxInputs)
	}
	od, args := newOdometer(spaces, digitBuf[:0])
	srcSide := side{fn: src, opts: cfg.SrcOpts, inputs: inputs}
	tgtSide := side{fn: tgt, opts: cfg.TgtOpts, inputs: inputs}
	if cfg.Metrics != nil {
		cfg.Metrics.Checks++
		// Executors accumulate engine counters across the whole sweep;
		// fold them in however Check exits.
		defer func() {
			srcSide.foldMetrics(cfg.Metrics)
			tgtSide.foldMetrics(cfg.Metrics)
		}()
	}
	res := Result{Exhaustive: exhaustive}
	for {
		res.Inputs++
		if cfg.Metrics != nil {
			cfg.Metrics.Inputs++
		}
		if res.Inputs > cfg.MaxInputs {
			res.Exhaustive = false
			break
		}
		sp := cfg.Trace.Start("behaviors_src")
		sb := behaviorsAt(&srcSide, args, res.Inputs-1, &cfg)
		sp.End()
		sp = cfg.Trace.Start("behaviors_tgt")
		tb := behaviorsAt(&tgtSide, args, res.Inputs-1, &cfg)
		sp.End()
		ok, reason := Refines(sb, tb)
		if !ok {
			if strings.HasPrefix(reason, "inconclusive") {
				res.InconclusiveInputs++
			} else {
				res.Status = Refuted
				// The odometer rewrites args in place: copy them deep.
				res.CE = &CounterExample{Args: make([]core.Value, len(args)), Src: sb, Tgt: tb, Reason: reason}
				for i, a := range args {
					res.CE.Args[i] = core.Value{Ty: a.Ty, Lanes: slices.Clone(a.Lanes)}
				}
				return res
			}
		}
		if !od.next() {
			break
		}
	}
	if res.InconclusiveInputs > 0 || !res.Exhaustive {
		res.Status = Inconclusive
	} else {
		res.Status = Verified
	}
	return res
}

// CandidateValues returns the input values to try for a parameter of
// type ty, and whether they cover the type exhaustively. Deferred-UB
// inputs are included: poison always, undef under legacy semantics.
// Integers up to the default exhaustive width (4 bits) are fully
// enumerated; Config.ExhaustiveInputBits widens that cutoff. The list
// is the sequence Check streams for such a parameter.
func CandidateValues(ty ir.Type, mode core.Mode) ([]core.Value, bool) {
	return candidateValuesBits(ty, mode, 0)
}

func candidateValuesBits(ty ir.Type, mode core.Mode, bits uint) ([]core.Value, bool) {
	ps, exhaustive := paramSpaceOf(ty, mode, bits)
	od, args := newOdometer([]paramSpace{ps}, nil)
	var vs []core.Value
	for {
		vs = append(vs, core.Value{Ty: ty, Lanes: slices.Clone(args[0].Lanes)})
		if !od.next() {
			return vs, exhaustive
		}
	}
}

// laneSpace is the sequence of values one lane takes: conc concrete
// values (samples[i], or i itself when samples is nil), then poison,
// then undef when deferred is 2.
type laneSpace struct {
	samples  []uint64
	conc     int
	deferred int
}

func (ls laneSpace) size() int { return ls.conc + ls.deferred }

// scalar returns the lane's d-th value.
func (ls laneSpace) scalar(d int) core.Scalar {
	switch {
	case d < ls.conc && ls.samples != nil:
		return core.C(ls.samples[d])
	case d < ls.conc:
		return core.C(uint64(d))
	case d == ls.conc:
		return core.PoisonScalar
	}
	return core.UndefScalar
}

// paramSpace is the sequence of inputs Check tries for one parameter:
// either every lane takes the same value from lane (scalars, pointers
// and wide vectors), or, for small integer vectors, each lane varies
// independently over lane, the last lane fastest.
type paramSpace struct {
	ty     ir.Type
	lane   laneSpace
	lanes  int
	spread bool
}

// size is the number of inputs in the space.
func (ps paramSpace) size() int {
	if !ps.spread {
		return ps.lane.size()
	}
	n := 1
	for i := 0; i < ps.lanes; i++ {
		n *= ps.lane.size()
	}
	return n
}

// paramSpaceOf returns the input space of a parameter of type ty and
// whether it covers the type exhaustively. Integers (and the lanes of
// integer vectors of at most 6 bits) up to bits wide (0 means 4) are
// enumerated in full, wider ones sampled at their corners.
func paramSpaceOf(ty ir.Type, mode core.Mode, bits uint) (paramSpace, bool) {
	if bits == 0 {
		bits = 4
	}
	deferred := 1
	if mode == core.Legacy {
		deferred = 2
	}
	intLane := func(w uint) (laneSpace, bool) {
		if w <= bits {
			return laneSpace{conc: 1 << w, deferred: deferred}, true
		}
		return laneSpace{samples: intSamples[w], conc: len(intSamples[w]), deferred: deferred}, false
	}
	lanes := int(ty.NumElems())
	switch {
	case ty.IsInt():
		lane, exhaustive := intLane(ty.Bits)
		return paramSpace{ty: ty, lane: lane, lanes: 1}, exhaustive
	case ty.IsPtr():
		// Null and poison. Valid pointers require a memory harness the
		// caller sets up (see CheckWithPointers-style helpers in the
		// pass tests); enumeration here stays conservative.
		return paramSpace{ty: ty, lane: laneSpace{conc: 1, deferred: deferred}, lanes: 1}, false
	case ty.IsVec() && ty.ElemType().IsInt() && ty.ElemType().Bits*ty.Len <= 6:
		lane, exhaustive := intLane(ty.ElemType().Bits)
		return paramSpace{ty: ty, lane: lane, lanes: lanes, spread: true}, exhaustive
	case ty.IsVec():
		// The zero vector and the all-poison (and all-undef) vectors.
		return paramSpace{ty: ty, lane: laneSpace{conc: 1, deferred: deferred}, lanes: lanes}, false
	}
	panic("refine: no candidates for type " + ty.String())
}

// intSamples[w] lists the corner values sampled for a w-bit integer
// too wide to enumerate, deduplicated in first-seen order.
var intSamples = func() (t [ir.MaxIntBits + 1][]uint64) {
	for w := uint(1); w <= ir.MaxIntBits; w++ {
		for _, s := range []uint64{0, 1, 2, 3, ^uint64(0), 1 << (w - 1), 1<<(w-1) - 1, 5, 10, 100} {
			s = ir.TruncBits(s, w)
			if !slices.Contains(t[w], s) {
				t[w] = append(t[w], s)
			}
		}
	}
	return t
}()

// odometer streams Check's input vectors through one argument vector:
// each digit is one parameter, or one lane of a spread vector
// parameter, and advancing a digit rewrites only the lanes it owns. The
// last digit turns fastest, which is the order CandidateValues lists
// and the order memo ordinals are counted in.
type odometer struct {
	digits []inputDigit
}

type inputDigit struct {
	arg  *core.Value
	lane int // the lane this digit writes; -1 writes every lane
	ls   laneSpace
	d    int
}

// write stores the digit's current value into its argument.
func (dg *inputDigit) write() {
	s := dg.ls.scalar(dg.d)
	if dg.lane >= 0 {
		dg.arg.Lanes[dg.lane] = s
		return
	}
	for i := range dg.arg.Lanes {
		dg.arg.Lanes[i] = s
	}
}

// newOdometer returns an odometer over spaces, positioned on the first
// input, and the argument vector it writes. digits is appended to, so
// it may bring capacity from the caller's stack (which is why the
// argument vector is returned apart from the odometer: the engines
// keep it, and that must not move the digits to the heap).
func newOdometer(spaces []paramSpace, digits []inputDigit) (odometer, []core.Value) {
	nlanes := 0
	for _, ps := range spaces {
		nlanes += ps.lanes
	}
	lanes := make([]core.Scalar, nlanes)
	args := make([]core.Value, len(spaces))
	for i, ps := range spaces {
		args[i] = core.Value{Ty: ps.ty, Lanes: lanes[:ps.lanes:ps.lanes]}
		lanes = lanes[ps.lanes:]
		if !ps.spread {
			digits = append(digits, inputDigit{arg: &args[i], lane: -1, ls: ps.lane})
			continue
		}
		for l := 0; l < ps.lanes; l++ {
			digits = append(digits, inputDigit{arg: &args[i], lane: l, ls: ps.lane})
		}
	}
	for k := range digits {
		digits[k].write()
	}
	return odometer{digits: digits}, args
}

// next advances to the following input, reporting false (with every
// digit back on its first value) once the sequence is exhausted.
func (od *odometer) next() bool {
	for k := len(od.digits) - 1; k >= 0; k-- {
		dg := &od.digits[k]
		dg.d++
		if dg.d < dg.ls.size() {
			dg.write()
			return true
		}
		dg.d = 0
		dg.write()
	}
	return false
}
