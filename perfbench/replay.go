package main

import (
	"fmt"
	"strings"
	"time"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/optfuzz"
	"tameir/internal/refine"
)

// ledger splits the replay's wall time over the layer calls it makes.
// Whatever no layer call covers is other().
type ledger struct {
	wall     time.Duration
	generate time.Duration // optfuzz: Source.Enumerate minus the per-candidate work
	advance  time.Duration // optfuzz: Evolving.Advance
	passes   time.Duration // passes: PassManager.RunFuncChanged
	compile  time.Duration // core: ProgramCache.Get, both sides
	check    time.Duration // refine: refine.Check
	reduce   time.Duration // optfuzz: ReduceFinding
}

func (l ledger) other() time.Duration {
	return l.wall - (l.generate + l.advance + l.passes + l.compile + l.check + l.reduce)
}

// replayResult is the serial replay's ledger, its counters, and the
// campaign result it reconstructs.
type replayResult struct {
	ledger ledger
	stats  optfuzz.Stats

	changed               int       // candidates the pipeline changed
	checkUS               []float64 // per top-level check
	check, reduceCheck    refine.CheckMetrics
	memoLookups, memoHits uint64
	progHits, progLookups uint64
}

// replay re-runs a recorded campaign on one goroutine, timing each
// layer call separately: a fresh source regenerates the candidate
// stream from the recorded shard budgets (and, for an evolving source,
// the recorded feedback), and every candidate goes through clone,
// pipeline, program cache, checker and — when refuted under Reduce —
// the reducer, exactly as a campaign shard does. The checker is
// configured as a shard configures it: a shared memo with its own
// session, an enumeration oracle, and a program cache.
func replay(spec campaignSpec, rec *sourceRecord) (replayResult, error) {
	var rp replayResult
	c := spec.build()
	src := source(c)
	evolving, _ := src.(optfuzz.Evolving)
	pm := c.Pipeline.Clone()
	transform := func(f *ir.Func) []string {
		_, fired := pm.RunFuncChanged(f, c.PipelineCfg)
		return fired
	}

	rcfg := c.Refine
	memo := refine.NewMemo(0)
	rcfg.Memo = memo
	rcfg.Session = memo.NewSession()
	rcfg.Oracle = core.NewEnumOracle(rcfg.MaxChoices, rcfg.MaxFanout)
	progs := core.NewProgramCache(0)
	rcfg.Programs = progs
	rcfg.Metrics = &rp.check
	rrcfg := rcfg
	rrcfg.Metrics = &rp.reduceCheck
	// The checker compiles each side under the options with its Fuel
	// applied; fetching the same keys first moves compilation out of
	// refine.Check and into the core ledger entry.
	srcOpts, tgtOpts := rcfg.SrcOpts, rcfg.TgtOpts
	if rcfg.Fuel > 0 {
		srcOpts.Fuel, tgtOpts.Fuel = rcfg.Fuel, rcfg.Fuel
	}
	progDelta := func(before core.ProgramCacheStats) {
		after := progs.Stats()
		rp.progHits += after.Hits - before.Hits
		rp.progLookups += after.Hits + after.Misses - before.Hits - before.Misses
	}

	l := &rp.ledger
	st := &rp.stats
	var mismatch error
	start := time.Now()
	for epoch, shards := range rec.shards {
		var fb []optfuzz.Feedback
		if epoch < len(rec.feedback) {
			fb = rec.feedback[epoch]
		}
		next := 0 // cursor into fb, which is in (shard, index) order
		for s, sh := range shards {
			if !sh.called {
				continue
			}
			var work time.Duration
			idx := 0
			enumStart := time.Now()
			n, _ := src.Enumerate(s, sh.max, func(f *ir.Func) bool {
				t0 := time.Now()
				w := ir.CloneFunc(f)
				t1 := time.Now()
				changed, fired := pm.RunFuncChanged(w, c.PipelineCfg)
				t2 := time.Now()
				before := progs.Stats()
				progs.Get(f, srcOpts)
				progs.Get(w, tgtOpts)
				progDelta(before)
				t3 := time.Now()
				r := refine.Check(f, w, rcfg)
				t4 := time.Now()
				l.passes += t2.Sub(t1)
				l.compile += t3.Sub(t2)
				l.check += t4.Sub(t3)
				rp.checkUS = append(rp.checkUS, float64(t4.Sub(t3).Nanoseconds())/1e3)
				if changed {
					rp.changed++
				}

				st.Funcs++
				switch r.Status {
				case refine.Verified:
					st.Verified++
				case refine.Refuted:
					st.Refuted++
					fd := optfuzz.Finding{Epoch: epoch, Shard: s, Index: idx, ChangedBy: fired,
						Src: f.String(), Tgt: w.String(), Result: r}
					if c.Reduce {
						before := progs.Stats()
						t5 := time.Now()
						rr := optfuzz.ReduceFinding(f, transform, rrcfg, spec.verifyMode(), c.ReduceMaxSteps)
						l.reduce += time.Since(t5)
						progDelta(before)
						st.ReducedFindings++
						st.ReduceSteps += uint64(rr.Steps)
						st.ReduceAttempts += uint64(rr.Attempts)
						if rr.Steps > 0 {
							fd.OrigSrc, fd.ReduceSteps = fd.Src, rr.Steps
							fd.Src, fd.Tgt, fd.ChangedBy, fd.Result = rr.Src, rr.Tgt, rr.ChangedBy, rr.Result
						}
					}
					st.Findings = append(st.Findings, fd)
				default:
					st.Inconclusive++
				}
				if evolving != nil && mismatch == nil {
					mismatch = sameFeedback(fb, next, s, idx, f, r.Status, fired)
					next++
				}
				idx++
				work += time.Since(t0)
				return true
			})
			l.generate += time.Since(enumStart) - work
			if n != sh.emitted {
				return rp, fmt.Errorf("replay: shard %d of epoch %d emitted %d candidates, the campaign saw %d", s, epoch, n, sh.emitted)
			}
		}
		if evolving != nil {
			if mismatch == nil && next != len(fb) {
				mismatch = fmt.Errorf("replay: epoch %d replayed %d candidates, the campaign fed back %d", epoch, next, len(fb))
			}
			t0 := time.Now()
			evolving.Advance(epoch, fb)
			l.advance += time.Since(t0)
		}
	}
	l.wall = time.Since(start)
	if mismatch != nil {
		return rp, mismatch
	}
	st.Epochs = len(rec.shards)
	if cr, ok := src.(optfuzz.CorpusReporter); ok {
		cs := cr.CorpusStats()
		st.CorpusSize, st.CoverageKeys = cs.Size, cs.Coverage
	}
	rp.memoLookups, rp.memoHits = memo.Lookups(), memo.Hits()
	return rp, nil
}

// sameFeedback checks one replayed candidate against the feedback the
// campaign recorded for it: position, text, verdict and firing passes.
func sameFeedback(fb []optfuzz.Feedback, i, shard, idx int, f *ir.Func, status refine.Status, fired []string) error {
	if i >= len(fb) {
		return fmt.Errorf("replay: candidate (%d, %d) has no campaign feedback", shard, idx)
	}
	want := fb[i]
	if want.Shard != shard || want.Index != idx || want.Src != f.String() ||
		want.Refuted != (status == refine.Refuted) || want.Inconclusive != (status == refine.Inconclusive) ||
		strings.Join(want.ChangedBy, ",") != strings.Join(fired, ",") {
		return fmt.Errorf("replay: candidate (%d, %d) differs from the campaign's", shard, idx)
	}
	return nil
}

// report sets the per-layer metrics the replay measures.
func (rp replayResult) report(res *result) {
	l := rp.ledger
	eng := rp.check.Engine
	eng.Add(rp.reduceCheck.Engine)
	pct, tail := tailPercentile(rp.checkUS)

	res.set("optfuzz.generate_s", l.generate.Seconds())
	res.set("optfuzz.candidates", float64(rp.stats.Funcs))
	res.set("optfuzz.advance_s", l.advance.Seconds())
	res.set("optfuzz.reduce_s", l.reduce.Seconds())
	res.set("optfuzz.reduce_attempts", float64(rp.stats.ReduceAttempts))
	res.set("optfuzz.reduce_accept_ratio", ratio(float64(rp.stats.ReduceSteps), float64(rp.stats.ReduceAttempts)))
	res.set("passes.run_s", l.passes.Seconds())
	res.set("passes.changed_ratio", ratio(float64(rp.changed), float64(rp.stats.Funcs)))
	res.set("core.compile_s", l.compile.Seconds())
	res.set("core.execs", float64(eng.Execs))
	res.set("core.steps", float64(eng.Steps))
	res.set("core.bytecode_exec_share", ratio(float64(eng.BytecodeExecs), float64(eng.Execs)))
	res.set("core.promotions", float64(eng.Promotions))
	res.set("core.progcache_hit_ratio", ratio(float64(rp.progHits), float64(rp.progLookups)))
	res.set("refine.check_s", l.check.Seconds())
	res.set("refine.checks", float64(rp.check.Checks))
	res.set("refine.inputs", float64(rp.check.Inputs))
	res.set("refine.memo_lookups", float64(rp.memoLookups))
	res.set("refine.memo_hit_ratio", ratio(float64(rp.memoHits), float64(rp.memoLookups)))
	res.set("refine.inconclusive", float64(rp.stats.Inconclusive))
	res.set("refine.check_p50_us", median(rp.checkUS))
	res.set("refine.check_tail_us", tail)
	res.set("refine.check_tail_pct", pct)
	res.set("refine.check_max_ms", quantile(rp.checkUS, 1)/1e3)
	res.set("ledger.replay_s", l.wall.Seconds())
	res.set("ledger.other_s", l.other().Seconds())
}
