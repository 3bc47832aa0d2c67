package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"tameir/internal/ir"
	"tameir/internal/mi"
	"tameir/internal/minc"
	"tameir/internal/passes"
	"tameir/internal/target"
)

// Variant is one compiler configuration. The evaluation compares
// Baseline (the legacy compiler the paper forked from) against
// Prototype (the paper's freeze prototype).
type Variant struct {
	Name    string
	MincCfg minc.Config
	PassCfg *passes.Config
}

// Baseline is the pre-paper compiler: legacy undef+poison semantics,
// historical pass behaviour, no freeze anywhere.
func Baseline() Variant {
	return Variant{
		Name:    "baseline",
		MincCfg: minc.Config{FreezeBitfieldLoads: false},
		PassCfg: passes.DefaultLegacyConfig(),
	}
}

// Prototype is the paper's prototype: freeze semantics, fixed passes,
// freeze-aware optimizations, frontend freezing bit-field loads.
func Prototype() Variant {
	return Variant{
		Name:    "prototype",
		MincCfg: minc.Config{FreezeBitfieldLoads: true},
		PassCfg: passes.DefaultFreezeConfig(),
	}
}

// FreezeBlindPrototype is the prototype with FreezeAware disabled: the
// optimizers conservatively give up around freeze, reproducing the
// early-prototype regressions §6 describes (blocked jump threading,
// unsunk compares).
func FreezeBlindPrototype() Variant {
	cfg := passes.DefaultFreezeConfig()
	cfg.FreezeAware = false
	return Variant{
		Name:    "prototype-freezeblind",
		MincCfg: minc.Config{FreezeBitfieldLoads: true},
		PassCfg: cfg,
	}
}

// Measurement is one (program, variant) data point.
type Measurement struct {
	Program string
	Suite   string
	Variant string

	CompileNs  int64  // median frontend+O2+backend wall time
	AllocBytes uint64 // compiler allocations during one compile

	IRInstrs    int
	FreezeCount int
	ObjectBytes uint32
	Cycles      uint64
	SimInstrs   uint64
	Checksum    int32
	Want        int32 // the program's reference checksum
	ChecksumOK  bool
	SimError    string
}

// Compile runs the full pipeline once and returns the optimized module
// and machine program.
func Compile(p Program, v Variant) (*ir.Module, *target.Program, error) {
	mod, err := minc.CompileString(p.Src, v.MincCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: frontend: %w", p.Name, err)
	}
	passes.O2().Run(mod, v.PassCfg)
	prog, err := mi.CompileModule(mod)
	if err != nil {
		return mod, nil, fmt.Errorf("%s: backend: %w", p.Name, err)
	}
	return mod, prog, nil
}

// Measure compiles p under v (reps times, minimum wall time) and runs
// it on the simulator.
func Measure(p Program, v Variant, reps int) (Measurement, error) {
	if reps < 1 {
		reps = 1
	}
	m := Measurement{Program: p.Name, Suite: p.Suite, Variant: v.Name, Want: p.Want}

	var mod *ir.Module
	var prog *target.Program
	times := make([]int64, 0, reps)
	var before, after runtime.MemStats
	for i := 0; i < reps; i++ {
		// GC between repetitions so collector pauses from a previous
		// compile do not land in this one; take the minimum across
		// repetitions, the standard noise-resistant estimator for
		// short deterministic work.
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		var err error
		mod, prog, err = Compile(p, v)
		d := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return m, err
		}
		times = append(times, d)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	m.CompileNs = times[0]
	m.AllocBytes = after.TotalAlloc - before.TotalAlloc

	for _, f := range mod.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			m.IRInstrs++
			if in.Op == ir.OpFreeze {
				m.FreezeCount++
			}
		})
	}
	m.ObjectBytes = target.ProgramSize(prog)

	mach := target.NewMachine(prog)
	ret, err := mach.Run(prog.FuncByName("main"))
	if err != nil {
		m.SimError = err.Error()
		return m, nil
	}
	m.Cycles = mach.Cycles
	m.SimInstrs = mach.Instrs
	m.Checksum = int32(uint32(ret))
	m.ChecksumOK = m.Checksum == p.Want
	return m, nil
}

// MeasureAll measures every program under a variant.
func MeasureAll(v Variant, reps int) ([]Measurement, error) {
	var out []Measurement
	for _, p := range Programs {
		m, err := Measure(p, v, reps)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// pct returns the percentage change from base to test (positive =
// improvement when lowerIsBetter).
func pct(base, test float64, lowerIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	ch := (test - base) / base * 100
	if lowerIsBetter {
		return -ch
	}
	return ch
}

// Report renders the paper's §7.2 measurement categories for a
// baseline/prototype pair. Positive percentages mean the prototype
// improved (matching Figure 6's sign convention: "positive values
// indicate that performance improved").
func Report(w io.Writer, base, proto []Measurement) {
	index := map[string]Measurement{}
	for _, m := range base {
		index[m.Program] = m
	}

	fmt.Fprintf(w, "== E4: compile time (baseline vs prototype; positive %% = prototype faster) ==\n")
	fmt.Fprintf(w, "%-12s %-5s %12s %12s %8s\n", "benchmark", "suite", "base(µs)", "proto(µs)", "Δ%")
	for _, m := range proto {
		b := index[m.Program]
		fmt.Fprintf(w, "%-12s %-5s %12.0f %12.0f %+8.1f\n",
			m.Program, m.Suite, float64(b.CompileNs)/1e3, float64(m.CompileNs)/1e3,
			pct(float64(b.CompileNs), float64(m.CompileNs), true))
	}

	fmt.Fprintf(w, "\n== E5: compiler memory (allocations during compile) ==\n")
	fmt.Fprintf(w, "%-12s %12s %12s %8s\n", "benchmark", "base(KB)", "proto(KB)", "Δ%")
	for _, m := range proto {
		b := index[m.Program]
		fmt.Fprintf(w, "%-12s %12.0f %12.0f %+8.1f\n",
			m.Program, float64(b.AllocBytes)/1024, float64(m.AllocBytes)/1024,
			pct(float64(b.AllocBytes), float64(m.AllocBytes), true))
	}

	fmt.Fprintf(w, "\n== E6: object code size and freeze fraction ==\n")
	fmt.Fprintf(w, "%-12s %10s %10s %8s %8s %10s\n", "benchmark", "base(B)", "proto(B)", "Δ%", "freezes", "freeze%IR")
	for _, m := range proto {
		b := index[m.Program]
		frac := 0.0
		if m.IRInstrs > 0 {
			frac = float64(m.FreezeCount) / float64(m.IRInstrs) * 100
		}
		fmt.Fprintf(w, "%-12s %10d %10d %+8.2f %8d %9.2f%%\n",
			m.Program, b.ObjectBytes, m.ObjectBytes,
			pct(float64(b.ObjectBytes), float64(m.ObjectBytes), true),
			m.FreezeCount, frac)
	}

	fmt.Fprintf(w, "\n== E7: run time in simulated cycles (Figure 6; positive %% = prototype faster) ==\n")
	for _, suite := range []string{"CINT", "CFP", "LNT"} {
		fmt.Fprintf(w, "--- %s ---\n", suite)
		fmt.Fprintf(w, "%-12s %14s %14s %8s %s\n", "benchmark", "base(cyc)", "proto(cyc)", "Δ%", "checksum")
		for _, m := range proto {
			if m.Suite != suite {
				continue
			}
			b := index[m.Program]
			status := "ok"
			if !m.ChecksumOK || !b.ChecksumOK {
				status = fmt.Sprintf("MISMATCH base=%d proto=%d want=%d", b.Checksum, m.Checksum, m.Want)
			}
			if m.SimError != "" || b.SimError != "" {
				status = "SIM ERROR " + m.SimError + b.SimError
			}
			fmt.Fprintf(w, "%-12s %14d %14d %+8.2f %s\n",
				m.Program, b.Cycles, m.Cycles,
				pct(float64(b.Cycles), float64(m.Cycles), true), status)
		}
	}
}
