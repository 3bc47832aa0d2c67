package passes_test

import (
	"strings"
	"testing"

	"tameir/internal/analysis"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
)

// corpus enumerates a bounded slice of the §6 generator space.
func corpus(t *testing.T, numInstrs, maxFuncs int) []*ir.Func {
	t.Helper()
	gen := optfuzz.DefaultConfig(numInstrs)
	gen.AllowUndef = false
	gen.AllowPoison = true
	gen.EnumAttrs = true
	gen.MaxFuncs = maxFuncs
	var out []*ir.Func
	optfuzz.Exhaustive(gen, func(f *ir.Func) bool {
		out = append(out, f)
		return true
	})
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

// TestO2Fixpoint: when the pipeline reports convergence (a full round
// with no change, rather than the MaxIters cap), the function is a true
// fixed point — a second full run changes nothing. A minority of
// candidates legitimately hit the cap (reassociate and instcombine can
// trade canonical forms indefinitely); the cap is exactly what bounds
// them, so the test only insists convergence is the common case.
func TestO2Fixpoint(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyAfterEach = true
	funcs := corpus(t, 2, 400)
	total := passes.NewStats()
	capped := 0
	for _, f := range funcs {
		pm := passes.O2().Instrument()
		pm.RunFunc(f, cfg)
		if pm.Stats.Converged() == 1 {
			if pm.RunFunc(f, cfg) {
				t.Fatalf("converged function changed on a second O2 run:\n%s", f)
			}
		} else {
			capped++
		}
		total.Merge(pm.Stats)
	}
	if capped*4 > len(funcs) {
		t.Errorf("%d of %d functions hit the iteration cap; convergence should be the common case",
			capped, len(funcs))
	}
	if total.Analysis().Hits == 0 {
		t.Error("analysis cache never hit across the corpus")
	}
}

// TestCachedAnalysesDontChangeOutput is the refactor's load-bearing
// guarantee: with cached analyses + preserved-set invalidation the
// optimizer must produce byte-identical output to the historical
// recompute-every-pass behaviour (NoAnalysisCache reproduces it).
func TestCachedAnalysesDontChangeOutput(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyAfterEach = true
	cached := passes.O2()
	uncached := passes.O2()
	uncached.NoAnalysisCache = true
	for _, f := range corpus(t, 2, 600) {
		a, b := ir.CloneFunc(f), ir.CloneFunc(f)
		cached.RunFunc(a, cfg)
		uncached.RunFunc(b, cfg)
		if a.String() != b.String() {
			t.Fatalf("cached analyses changed the output for\n%s\ncached:\n%s\nuncached:\n%s",
				f, a, b)
		}
	}
}

// TestPreservedAnalysesInvalidation: a CFG-mutating pass (simplifycfg)
// must evict the cached domtree, while a pass that only rewrites
// instructions (instsimplify) must keep it.
func TestPreservedAnalysesInvalidation(t *testing.T) {
	f := ir.MustParseFunc(`define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, 0
  br i1 true, label %t, label %e
t:
  ret i2 %a
e:
  ret i2 0
}`)
	cfg := passes.DefaultFreezeConfig()
	cfg.VerifyAfterEach = true
	am := analysis.NewManager(f)
	am.DomTree()

	if !passes.RunPassWithManager(passes.InstSimplify{}, f, cfg, am) {
		t.Fatal("instsimplify did not fold the add-zero identity")
	}
	if !am.Cached(analysis.Doms) {
		t.Fatal("instsimplify evicted the domtree despite preserving all analyses")
	}

	if !passes.RunPassWithManager(passes.SimplifyCFG{}, f, cfg, am) {
		t.Fatal("simplifycfg did not fold the constant branch")
	}
	if am.Cached(analysis.Doms) || am.Cached(analysis.CFG) {
		t.Fatal("simplifycfg left stale CFG analyses cached")
	}
}

// TestRunFuncChangedAttribution: the fired-pass list names the passes
// that changed the function, in first-fire order, deduplicated.
func TestRunFuncChangedAttribution(t *testing.T) {
	f := ir.MustParseFunc(`define i2 @f(i2 %x) {
entry:
  %a = add i2 %x, 0
  ret i2 %a
}`)
	cfg := passes.DefaultFreezeConfig()
	pm := passes.O2()
	changed, fired := pm.RunFuncChanged(f, cfg)
	if !changed || len(fired) == 0 {
		t.Fatalf("changed=%v fired=%v", changed, fired)
	}
	seen := map[string]bool{}
	for _, n := range fired {
		if seen[n] {
			t.Errorf("pass %q listed twice in %v", n, fired)
		}
		seen[n] = true
	}
	if !seen["instsimplify"] {
		t.Errorf("instsimplify folded the add but is missing from %v", fired)
	}
}

// TestStatsReports: -time-passes and -stats style reports include every
// pipeline pass and the analysis-cache counters.
func TestStatsReports(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	pm := passes.O2().Instrument()
	for _, f := range corpus(t, 1, 50) {
		pm.RunFunc(f, cfg)
	}
	var timeRep, statRep strings.Builder
	pm.Stats.ReportTime(&timeRep)
	pm.Stats.Report(&statRep)
	for _, want := range []string{"Pass execution timing", "gvn", "simplifycfg"} {
		if !strings.Contains(timeRep.String(), want) {
			t.Errorf("-time-passes report lacks %q:\n%s", want, timeRep.String())
		}
	}
	for _, want := range []string{"Pass statistics", "analyses computed", "fixpoint iterations"} {
		if !strings.Contains(statRep.String(), want) {
			t.Errorf("-stats report lacks %q:\n%s", want, statRep.String())
		}
	}
}

// TestPassTimingFromSpans: per-pass wall time comes only from the
// pass spans. An instrumented manager without a pass scope reads no
// clock and reports zero; under TimePasses the -time-passes report
// lists a nonzero time for every pass that ran, and the time survives
// a Merge.
func TestPassTimingFromSpans(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	funcs := corpus(t, 1, 40)

	untimed := passes.O2().Instrument()
	for _, f := range funcs {
		untimed.RunFunc(ir.CloneFunc(f), cfg)
	}
	for _, ps := range untimed.Stats.PassStats() {
		if ps.Wall != 0 {
			t.Errorf("%s: wall %v without a pass scope", ps.Name, ps.Wall)
		}
	}
	var expo strings.Builder
	if err := untimed.Stats.Registry().Snapshot().WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	if got := expo.String(); strings.Contains(got, "span_wall_ns") || strings.Contains(got, "pass_wall_ns") {
		t.Errorf("untimed manager registered a timing series:\n%s", got)
	}

	timed := passes.O2().TimePasses()
	for _, f := range funcs {
		timed.RunFunc(ir.CloneFunc(f), cfg)
	}
	merged := passes.NewStats()
	merged.Merge(timed.Stats)
	for _, st := range []*passes.Stats{timed.Stats, merged} {
		var rep strings.Builder
		st.ReportTime(&rep)
		lines := strings.Split(rep.String(), "\n")
		for _, ps := range st.PassStats() {
			if ps.Runs == 0 {
				continue
			}
			if ps.Wall <= 0 {
				t.Errorf("%s ran %d times with no span time", ps.Name, ps.Runs)
			}
			found := false
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 3 && f[2] == ps.Name {
					found = f[0] != "0s"
				}
			}
			if !found {
				t.Errorf("-time-passes report lacks a nonzero time for %s:\n%s", ps.Name, rep.String())
			}
		}
	}
}

// TestStatsMerge: merging shard collectors adds counters and keeps
// pipeline order.
func TestStatsMerge(t *testing.T) {
	cfg := passes.DefaultFreezeConfig()
	funcs := corpus(t, 1, 60)

	whole := passes.O2().Instrument()
	for _, f := range funcs {
		whole.RunFunc(ir.CloneFunc(f), cfg)
	}

	a, b := passes.O2().Instrument(), passes.O2().Instrument()
	for i, f := range funcs {
		pm := a
		if i >= len(funcs)/2 {
			pm = b
		}
		pm.RunFunc(ir.CloneFunc(f), cfg)
	}
	merged := passes.NewStats()
	merged.Merge(a.Stats)
	merged.Merge(b.Stats)

	if merged.Funcs() != whole.Stats.Funcs() || merged.FixpointIters() != whole.Stats.FixpointIters() ||
		merged.Converged() != whole.Stats.Converged() || merged.Analysis() != whole.Stats.Analysis() {
		t.Errorf("merged counters funcs=%d iters=%d converged=%d analysis=%+v diverge from whole-run funcs=%d iters=%d converged=%d analysis=%+v",
			merged.Funcs(), merged.FixpointIters(), merged.Converged(), merged.Analysis(),
			whole.Stats.Funcs(), whole.Stats.FixpointIters(), whole.Stats.Converged(), whole.Stats.Analysis())
	}
	ws, ms := whole.Stats.PassStats(), merged.PassStats()
	if len(ws) != len(ms) {
		t.Fatalf("pass count %d vs %d", len(ms), len(ws))
	}
	for i := range ws {
		if ms[i].Name != ws[i].Name || ms[i].Runs != ws[i].Runs ||
			ms[i].Changed != ws[i].Changed || ms[i].InstrsRemoved != ws[i].InstrsRemoved {
			t.Errorf("pass %d: merged %+v vs whole %+v", i, ms[i], ws[i])
		}
	}
}
