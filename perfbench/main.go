// Command perfbench is the repository benchmark. It drives three
// workloads through the public APIs of the repository's layers and
// prints one JSON result line:
//
//	exhaustive-freeze  the §6 exhaustive i2 campaign, freeze dialect
//	mutate-legacy      coverage-guided CFG mutation, legacy dialect,
//	                   historical unsound -O2, reducer on
//	minc-o2            the §7 pipeline: MinC → -O2 → VX64 → simulator
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics. With --trace 1 it additionally times the calls into each
// layer from outside (a timing Source wrapper around the campaign and
// a serial replay of its candidates, or the four §7 stage calls) and
// reports the per-layer metrics. No in-program tracing switch is set
// in either mode. README.md lists the metrics and why the workloads
// were chosen.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line arguments.
type options struct {
	workload string
	// seed drives the benchmark's own cost-neutral choices (the order
	// in which minc-o2 visits its corpus). The campaign streams are
	// pinned: the exhaustive space is fixed, and the mutation stream
	// comes from mutationSeed, because mutation seeds differ in cost by
	// 6× and so cannot vary from run to run.
	seed         int64
	mutationSeed int64
	window       time.Duration
	trace        bool
}

// setupReps is how many times each workload sets itself up per run;
// setup_s is the median.
const setupReps = 5

// unit is one metric's unit. The names and units here must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"wall_s":        "s",
	"checks_per_s":  "1/s",
	"decided_share": "ratio",
	"passed_share":  "ratio",
	"peak_rss_mb":   "MB",
}

var perLayerUnits = map[string]string{
	"optfuzz.generate_s":          "s",
	"optfuzz.candidates":          "count",
	"optfuzz.advance_s":           "s",
	"optfuzz.corpus_size":         "count",
	"optfuzz.reduce_s":            "s",
	"optfuzz.reduce_attempts":     "count",
	"optfuzz.reduce_accept_ratio": "ratio",
	"parallel.utilization":        "ratio",
	"parallel.shard_skew":         "ratio",
	"passes.run_s":                "s",
	"passes.changed_ratio":        "ratio",
	"passes.ir_instrs_out":        "count",
	"passes.freezes_out":          "count",
	"core.compile_s":              "s",
	"core.execs":                  "count",
	"core.steps":                  "count",
	"core.bytecode_exec_share":    "ratio",
	"core.promotions":             "count",
	"core.progcache_hit_ratio":    "ratio",
	"refine.check_s":              "s",
	"refine.checks":               "count",
	"refine.inputs":               "count",
	"refine.memo_lookups":         "count",
	"refine.memo_hit_ratio":       "ratio",
	"refine.inconclusive":         "count",
	"refine.check_p50_us":         "us",
	"refine.check_tail_us":        "us",
	"refine.check_tail_pct":       "%",
	"refine.check_max_ms":         "ms",
	"minc.compile_s":              "s",
	"minc.ir_instrs":              "count",
	"mi.compile_s":                "s",
	"target.sim_s":                "s",
	"target.sim_instrs":           "count",
	"target.object_bytes":         "bytes",
	"target.sim_cycles":           "cycles",
	"ledger.replay_s":             "s",
	"ledger.other_s":              "s",
	"ledger.trace_overhead":       "ratio",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric; the name must be one the run reports.
func (r *result) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// finish checks that exactly the metrics of the run's mode are
// present: every end-to-end metric untraced, every per-layer metric
// traced.
func (r *result) finish(traced bool) error {
	want := endToEndUnits
	if traced {
		want = perLayerUnits
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			delete(r.Metrics, name)
		}
	}
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	if r.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return nil
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(options) (result, error){
	"exhaustive-freeze": runExhaustiveFreeze,
	"mutate-legacy":     runMutateLegacy,
	"minc-o2":           runMincO2,
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: exhaustive-freeze, mutate-legacy or minc-o2")
	flag.Int64Var(&o.seed, "seed", 1, "benchmark seed (orders the minc-o2 corpus)")
	flag.Int64Var(&o.mutationSeed, "mutation-seed", 7, "mutation seed of mutate-legacy (the make ci-workload seed)")
	flag.Float64Var(&seconds, "seconds", 20, "measurement window in seconds (a campaign runs at least once)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (exhaustive-freeze, mutate-legacy, minc-o2), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1

	printEnv(o)
	res, err := run(o)
	if err == nil {
		err = res.finish(o.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printEnv records the machine and build on stdout ahead of the result
// line.
func printEnv(o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"mutation_seed": o.mutationSeed,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"commit":        commit,
	}
	line, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Println("env", string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// timeSetup runs setup setupReps times after a collection and returns
// the median duration.
func timeSetup(setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// repeat runs rep at least once, and again while the previous rep's
// duration still fits in what is left of the window.
func repeat(window time.Duration, rep func() error) error {
	start := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		if err := rep(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > window {
			return nil
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentile returns the highest of the standard percentiles that
// still has at least ten samples above it, with its value; the median
// when there are fewer than twenty samples.
func tailPercentile(xs []float64) (pct, value float64) {
	for _, p := range []float64{99.99, 99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
