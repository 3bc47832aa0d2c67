package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tameir/internal/bench"
	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/minc"
	"tameir/internal/passes"
	"tameir/internal/target"
)

// largeFuncs sizes the synthetic large single-file program, the
// stand-in for the paper's third benchmark set.
const largeFuncs = 400

// mincCase is one (program, variant) compile-and-run with its
// reference checksum.
type mincCase struct {
	prog    bench.Program
	variant bench.Variant
	want    int32
}

// mincCases builds the corpus — the 25 bench.Programs plus the large
// file, under Baseline and Prototype — in an order drawn from seed.
// The hand-written Program.Want is each program's reference; the large
// file has none, so its reference is the interpreter
// (core.Env.RunInterp) on the unoptimized frontend module, which
// shares no code with -O2, the backend or the simulator.
func mincCases(seed int64) ([]mincCase, error) {
	progs := append([]bench.Program(nil), bench.Programs...)
	progs = append(progs, bench.Program{Name: "largefile", Suite: "LARGE", Src: bench.GenerateLargeProgram(largeFuncs)})
	var cases []mincCase
	for _, p := range progs {
		for _, v := range []bench.Variant{bench.Baseline(), bench.Prototype()} {
			want := p.Want
			if p.Suite == "LARGE" {
				var err error
				if want, err = interpChecksum(p, v); err != nil {
					return nil, err
				}
			}
			cases = append(cases, mincCase{prog: p, variant: v, want: want})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases, nil
}

func interpChecksum(p bench.Program, v bench.Variant) (int32, error) {
	mod, err := minc.CompileString(p.Src, v.MincCfg)
	if err != nil {
		return 0, fmt.Errorf("%s: reference frontend: %w", p.Name, err)
	}
	env, err := core.NewEnv(mod, core.ZeroOracle{}, v.PassCfg.Sem)
	if err != nil {
		return 0, fmt.Errorf("%s: reference: %w", p.Name, err)
	}
	out := env.RunInterp(mod.FuncByName("main"), nil)
	if out.Kind != core.OutRet || !out.Val.IsConcrete() {
		return 0, fmt.Errorf("%s: reference run under %s: %s", p.Name, v.Name, out)
	}
	return int32(out.Val.Int()), nil
}

// mincRound is one pass over the corpus.
type mincRound struct {
	wall time.Duration
	// Stage times and counts; filled only by a traced round.
	frontend, opt, backend, sim time.Duration
	irInstrs, irInstrsOut       int
	freezesOut                  int
	simInstrs                   uint64

	objectBytes, cycles uint64
	checked, decided    int
	failed              int
}

// runRound compiles and runs every case: minc.CompileString →
// passes.O2().Run → mi.CompileModule → target.Machine.Run, the same
// calls bench.Compile and bench.Measure make. A frontend, backend or
// simulator error, or a checksum that differs from the reference, is a
// failure. A traced round times the four stage calls one by one and
// counts instructions between them.
func runRound(cases []mincCase, traced bool) mincRound {
	var r mincRound
	start := time.Now()
	for _, c := range cases {
		r.checked++
		t0 := time.Now()
		mod, err := minc.CompileString(c.prog.Src, c.variant.MincCfg)
		if err != nil {
			r.failed++
			continue
		}
		t1 := time.Now()
		if traced {
			r.irInstrs += countInstrs(mod, nil)
			t1 = time.Now()
		}
		passes.O2().Run(mod, c.variant.PassCfg)
		t2 := time.Now()
		if traced {
			r.irInstrsOut += countInstrs(mod, &r.freezesOut)
			t2 = time.Now()
		}
		prog, err := mi.CompileModule(mod)
		t3 := time.Now()
		if err != nil {
			r.failed++
			continue
		}
		mach := target.NewMachine(prog)
		ret, err := mach.Run(prog.FuncByName("main"))
		t4 := time.Now()
		if traced {
			r.frontend += t1.Sub(t0)
			r.opt += t2.Sub(t1)
			r.backend += t3.Sub(t2)
			r.sim += t4.Sub(t3)
			r.simInstrs += mach.Instrs
		}
		if err != nil {
			r.failed++
			continue
		}
		r.decided++
		r.objectBytes += uint64(target.ProgramSize(prog))
		r.cycles += mach.Cycles
		if int32(uint32(ret)) != c.want {
			r.failed++
		}
	}
	r.wall = time.Since(start)
	return r
}

// countInstrs counts mod's instructions, and its freezes into freezes
// when non-nil.
func countInstrs(mod *ir.Module, freezes *int) int {
	n := 0
	for _, f := range mod.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			n++
			if freezes != nil && in.Op == ir.OpFreeze {
				*freezes++
			}
		})
	}
	return n
}

func runMincO2(o options) (result, error) {
	var res result
	var cases []mincCase
	setup, err := timeSetup(func() error {
		var err error
		cases, err = mincCases(o.seed)
		return err
	})
	if err != nil {
		return res, err
	}
	res.set("setup_s", setup)

	// A traced run spends half its window untraced and half traced, so
	// the overhead ratio compares like with like.
	window := o.window
	if o.trace {
		window /= 2
	}
	measure := func(traced bool) ([]mincRound, error) {
		var rs []mincRound
		err := repeat(window, func() error {
			r := runRound(cases, traced)
			if len(rs) > 0 && (r.objectBytes != rs[0].objectBytes || r.cycles != rs[0].cycles) {
				return errors.New("two rounds of the same corpus produced different code")
			}
			rs = append(rs, r)
			return nil
		})
		return rs, err
	}
	rounds, err := measure(false)
	if err != nil {
		return res, err
	}
	for _, r := range rounds {
		res.Attempted += int64(r.checked)
		res.Failed += int64(r.failed)
	}
	res.Correct = true
	var walls []float64
	var checked int
	var total time.Duration
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		checked += r.checked
		total += r.wall
	}
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		res.set("wall_s", median(walls))
		res.set("checks_per_s", float64(checked)/total.Seconds())
		res.set("decided_share", ratio(float64(rounds[0].decided), float64(rounds[0].checked)))
		res.set("passed_share", 1-ratio(float64(res.Failed), float64(res.Attempted)))
		res.set("peak_rss_mb", rss)
		return res, nil
	}

	traced, err := measure(true)
	if err != nil {
		return res, err
	}
	if traced[0].objectBytes != rounds[0].objectBytes || traced[0].cycles != rounds[0].cycles {
		return res, errors.New("traced and untraced rounds produced different code")
	}
	var sum mincRound
	var tracedWalls []float64
	for _, r := range traced {
		res.Attempted += int64(r.checked)
		res.Failed += int64(r.failed)
		tracedWalls = append(tracedWalls, r.wall.Seconds())
		sum.wall += r.wall
		sum.frontend += r.frontend
		sum.opt += r.opt
		sum.backend += r.backend
		sum.sim += r.sim
	}
	other := sum.wall - (sum.frontend + sum.opt + sum.backend + sum.sim)
	if other < 0 || other.Seconds() > ledgerResidual*sum.wall.Seconds() {
		return res, fmt.Errorf("ledger does not close: %.3fs of %.3fs unattributed (tolerance %.0f%%)",
			other.Seconds(), sum.wall.Seconds(), 100*ledgerResidual)
	}
	t := traced[0] // counts are identical in every round
	n := float64(len(traced))
	res.set("minc.compile_s", sum.frontend.Seconds()/n)
	res.set("minc.ir_instrs", float64(t.irInstrs))
	res.set("passes.run_s", sum.opt.Seconds()/n)
	res.set("passes.ir_instrs_out", float64(t.irInstrsOut))
	res.set("passes.freezes_out", float64(t.freezesOut))
	res.set("mi.compile_s", sum.backend.Seconds()/n)
	res.set("target.sim_s", sum.sim.Seconds()/n)
	res.set("target.sim_instrs", float64(t.simInstrs))
	res.set("target.object_bytes", float64(t.objectBytes))
	res.set("target.sim_cycles", float64(t.cycles))
	res.set("ledger.replay_s", sum.wall.Seconds()/n)
	res.set("ledger.other_s", other.Seconds()/n)
	res.set("ledger.trace_overhead", ratio(median(tracedWalls), median(walls)))
	for _, name := range []string{"optfuzz.generate_s", "optfuzz.candidates", "optfuzz.advance_s",
		"optfuzz.corpus_size", "optfuzz.reduce_s", "optfuzz.reduce_attempts", "optfuzz.reduce_accept_ratio",
		"parallel.utilization", "parallel.shard_skew", "passes.changed_ratio",
		"core.compile_s", "core.execs", "core.steps", "core.bytecode_exec_share", "core.promotions",
		"core.progcache_hit_ratio", "refine.check_s", "refine.checks", "refine.inputs",
		"refine.memo_lookups", "refine.memo_hit_ratio", "refine.inconclusive", "refine.check_p50_us",
		"refine.check_tail_us", "refine.check_tail_pct", "refine.check_max_ms"} {
		res.set(name, 0) // minc-o2 never reaches the campaign layers
	}
	return res, nil
}
