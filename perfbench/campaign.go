package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/passes"
	"tameir/internal/refine"
)

// campaignSpec is a validation campaign named by its tame-fuzz flags.
// build mirrors tame-fuzz's -validate set-up line for line, so the
// benchmark measures exactly the campaign the CLI runs
// (TestSpecMatchesTameFuzzStdout).
type campaignSpec struct {
	Source  string // "exhaustive" or "mutate"
	Sem     string // "freeze" or "legacy"
	Unsound bool
	Instrs  int
	N       int
	Seed    int64
	Epochs  int
	Reduce  bool
	Workers int
}

// exhaustiveFreeze is the §6 experiment at the paper's scale. The
// budget must stay at or above 240 000: the first refuted candidate
// (shard 1, index 9465) lies beyond smaller budgets.
var exhaustiveFreeze = campaignSpec{Source: "exhaustive", Sem: "freeze", Instrs: 2, N: 250000, Seed: 1, Workers: 2}

// mutateLegacy is the make ci-workload campaign; the seed comes from
// --mutation-seed.
func mutateLegacy(seed int64) campaignSpec {
	return campaignSpec{Source: "mutate", Sem: "legacy", Unsound: true, Instrs: 2, N: 60,
		Seed: seed, Epochs: 3, Reduce: true, Workers: 2}
}

// flags renders the spec as tame-fuzz arguments.
func (s campaignSpec) flags() []string {
	out := []string{"-validate", "-source", s.Source, "-sem", s.Sem,
		"-instrs", strconv.Itoa(s.Instrs), "-n", strconv.Itoa(s.N),
		"-seed", strconv.FormatInt(s.Seed, 10), "-workers", strconv.Itoa(s.Workers)}
	if s.Unsound {
		out = append(out, "-unsound")
	}
	if s.Epochs > 0 {
		out = append(out, "-epochs", strconv.Itoa(s.Epochs))
	}
	if s.Reduce {
		out = append(out, "-reduce")
	}
	return out
}

func (s campaignSpec) opts() core.Options {
	if s.Sem == "legacy" {
		return core.LegacyOptions(core.BranchPoisonNondet)
	}
	return core.FreezeOptions()
}

func (s campaignSpec) verifyMode() ir.VerifyMode {
	if s.Sem == "legacy" {
		return ir.VerifyLegacy
	}
	return ir.VerifyFreeze
}

// build returns a fresh campaign (mutation sources are stateful, so
// every run needs its own).
func (s campaignSpec) build() optfuzz.Campaign {
	opts := s.opts()
	pcfg := passes.DefaultFreezeConfig()
	if s.Sem == "legacy" {
		pcfg = passes.DefaultLegacyConfig()
	}
	pcfg.Unsound = s.Unsound
	pm := passes.O2()
	pm.Instrument()

	gen := optfuzz.DefaultConfig(s.Instrs)
	gen.Width = 2
	gen.MaxFuncs = s.N
	if opts.Mode == core.Freeze {
		gen.AllowUndef = false
		gen.AllowPoison = true
	}
	var src optfuzz.Source
	if s.Source == "mutate" {
		mcfg := optfuzz.DefaultMutationConfig(s.Seed)
		mcfg.Gen = gen
		mcfg.Mode = s.verifyMode()
		if s.Epochs > 0 {
			mcfg.Epochs = s.Epochs
		}
		if s.N > 0 {
			mcfg.PerEpoch = s.N
		}
		src = optfuzz.NewMutationSource(mcfg)
	}
	return optfuzz.Campaign{
		Gen:         gen,
		Source:      src,
		Refine:      refine.DefaultConfig(opts, opts),
		Pipeline:    pm,
		PipelineCfg: pcfg,
		Workers:     s.Workers,
		Reduce:      s.Reduce,
		Seed:        s.Seed,
	}
}

// source is the workload c runs: its Source, or the exhaustive
// enumerator over Gen that Run substitutes for a nil Source.
func source(c optfuzz.Campaign) optfuzz.Source {
	if c.Source != nil {
		return c.Source
	}
	return optfuzz.NewExhaustiveSource(c.Gen)
}

// stdout renders a campaign's result the way tame-fuzz prints it:
// the header line, then every finding.
func (s campaignSpec) stdout(st optfuzz.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: source=%s seed=%d sem=%s passes=o2\n", s.Source, s.Seed, s.Sem)
	for _, f := range st.Findings {
		reduced := ""
		if f.ReduceSteps > 0 {
			reduced = fmt.Sprintf(" reduce-steps=%d", f.ReduceSteps)
		}
		fmt.Fprintf(&b, "REFUTED source=%s seed=%d epoch=%d shard=%d index=%d changed-by=%s%s\n%s\n→\n%s\n%s\n\n",
			s.Source, s.Seed, f.Epoch, f.Shard, f.Index,
			strings.Join(f.ChangedBy, ","), reduced, f.Src, f.Tgt, f.Result)
	}
	return b.String()
}

// fingerprint is everything deterministic in a campaign's result: the
// verdict counts, the corpus and reducer counters, and every finding
// with its position, pair, reduction and counterexample.
func (s campaignSpec) fingerprint(st optfuzz.Stats) string {
	return fmt.Sprintf("funcs=%d verified=%d refuted=%d inconclusive=%d epochs=%d corpus=%d coverage=%d reduce=%d/%d/%d\n%s",
		st.Funcs, st.Verified, st.Refuted, st.Inconclusive, st.Epochs, st.CorpusSize, st.CoverageKeys,
		st.ReducedFindings, st.ReduceSteps, st.ReduceAttempts, s.stdout(st))
}

// checks is the number of (candidate, transform) verdicts.
func checks(st optfuzz.Stats) int {
	return st.Verified + st.Refuted + st.Inconclusive
}

// campaignWorkload is one campaign benchmark.
type campaignWorkload struct {
	spec campaignSpec
	// warm is a small campaign in the same dialect, run during set-up so
	// lazily built state (pass registry, tier backend, heap) exists
	// before the timed campaign.
	warm campaignSpec
	// failures counts the checks whose verdicts disagree with the
	// workload's reference.
	failures func(campaignSpec, optfuzz.Stats) int64
}

func runExhaustiveFreeze(o options) (result, error) {
	warm := exhaustiveFreeze
	warm.N = 2000
	return runCampaignWorkload(o, campaignWorkload{
		spec: exhaustiveFreeze,
		warm: warm,
		// The fixed passes are sound, so the reference verdict of every
		// check is "verified"; every refuted check is a failure.
		failures: func(_ campaignSpec, st optfuzz.Stats) int64 { return int64(st.Refuted) },
	})
}

func runMutateLegacy(o options) (result, error) {
	warm := campaignSpec{Source: "exhaustive", Sem: "legacy", Unsound: true, Instrs: 2, N: 2000, Seed: 1, Workers: 2}
	return runCampaignWorkload(o, campaignWorkload{
		spec:     mutateLegacy(o.mutationSeed),
		warm:     warm,
		failures: unconfirmedFindings,
	})
}

// unconfirmedFindings re-checks every reported (reduced) finding with
// the reference tree-walking interpreter instead of the compiled
// engines and counts those it does not refute.
func unconfirmedFindings(s campaignSpec, st optfuzz.Stats) int64 {
	cfg := refine.DefaultConfig(s.opts(), s.opts())
	cfg.Interpret = true
	var failed int64
	for _, f := range st.Findings {
		src, err1 := ir.ParseFunc(f.Src)
		tgt, err2 := ir.ParseFunc(f.Tgt)
		if err1 != nil || err2 != nil || refine.Check(src, tgt, cfg).Status != refine.Refuted {
			failed++
		}
	}
	return failed
}

func runCampaignWorkload(o options, w campaignWorkload) (result, error) {
	var res result
	setup, err := timeSetup(func() error {
		w.warm.build().Run()
		w.spec.build()
		return nil
	})
	if err != nil {
		return res, err
	}
	res.set("setup_s", setup)
	if o.trace {
		return res, tracedCampaign(w, &res)
	}

	var walls, rates []float64
	var ref optfuzz.Stats
	refPrint := ""
	err = repeat(o.window, func() error {
		c := w.spec.build()
		t0 := time.Now()
		st := c.Run()
		wall := time.Since(t0).Seconds()
		if fp := w.spec.fingerprint(st); refPrint == "" {
			ref, refPrint = st, fp
		} else if fp != refPrint {
			return errors.New("two runs of the same campaign disagree")
		}
		walls = append(walls, wall)
		rates = append(rates, float64(checks(st))/wall)
		return nil
	})
	if err != nil {
		return res, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	n := checks(ref)
	res.Correct = true
	res.Attempted = int64(n)
	res.Failed = w.failures(w.spec, ref)
	res.set("wall_s", median(walls))
	res.set("checks_per_s", median(rates))
	res.set("decided_share", ratio(float64(ref.Verified+ref.Refuted), float64(n)))
	res.set("passed_share", 1-ratio(float64(res.Failed), float64(n)))
	res.set("peak_rss_mb", rss)
	return res, nil
}

// ledgerResidual is the share of the replay wall the ledger may leave
// unattributed (candidate cloning, verdict bookkeeping, the timers
// themselves). A larger gap fails the run: some layer call is missing
// from the ledger.
const ledgerResidual = 0.10

// tracedCampaign runs the campaign three ways — untraced, under the
// timing Source wrapper, and as a serial replay of the wrapper's
// record — checks that all three agree, and reports the per-layer
// ledger.
func tracedCampaign(w campaignWorkload, res *result) error {
	c := w.spec.build()
	t0 := time.Now()
	ref := c.Run()
	untracedWall := time.Since(t0)
	refPrint := w.spec.fingerprint(ref)

	c = w.spec.build()
	src := source(c)
	rec := newSourceRecord(src)
	c.Source = wrapSource(src, rec)
	t0 = time.Now()
	traced := c.Run()
	tracedWall := time.Since(t0)
	if w.spec.fingerprint(traced) != refPrint {
		return errors.New("the campaign under the timing wrapper disagrees with the untraced campaign")
	}

	rp, err := replay(w.spec, rec)
	if err != nil {
		return err
	}
	if w.spec.fingerprint(rp.stats) != refPrint {
		return errors.New("the serial replay disagrees with the untraced campaign")
	}
	l := rp.ledger
	if other := l.other(); other < 0 || other.Seconds() > ledgerResidual*l.wall.Seconds() {
		return fmt.Errorf("ledger does not close: %.3fs of %.3fs unattributed (tolerance %.0f%%)",
			other.Seconds(), l.wall.Seconds(), 100*ledgerResidual)
	}

	n := checks(ref)
	res.Correct = true
	res.Attempted = int64(n)
	res.Failed = w.failures(w.spec, ref)

	var busy []float64
	var busySum float64
	for _, epoch := range rec.shards {
		for _, sh := range epoch {
			if sh.called {
				busy = append(busy, sh.busy.Seconds())
				busySum += sh.busy.Seconds()
			}
		}
	}
	res.set("parallel.utilization", ratio(busySum, tracedWall.Seconds()*float64(w.spec.Workers)))
	res.set("parallel.shard_skew", ratio(quantile(busy, 1), median(busy)))
	res.set("ledger.trace_overhead", ratio(tracedWall.Seconds(), untracedWall.Seconds()))
	rp.report(res)
	res.set("optfuzz.corpus_size", float64(ref.CorpusSize))
	for _, name := range []string{"passes.ir_instrs_out", "passes.freezes_out", "minc.compile_s",
		"minc.ir_instrs", "mi.compile_s", "target.sim_s", "target.sim_instrs",
		"target.object_bytes", "target.sim_cycles"} {
		res.set(name, 0) // the campaigns never reach the §7 layers
	}
	return nil
}
