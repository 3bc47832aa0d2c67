package refine

import (
	"tameir/internal/core"
	"tameir/internal/telemetry"
)

// CheckMetrics accumulates validator counters. It is plain (non-atomic)
// state owned by one goroutine — campaigns give each shard its own and
// merge in shard order — and publishes into a telemetry registry once
// per batch via Publish.
type CheckMetrics struct {
	// Checks counts Check calls; Inputs counts input tuples swept.
	// Both are pure functions of the work partition.
	Checks uint64
	Inputs uint64

	// SetsComputed / SetsMemoHit split behaviour-set consumption by
	// provenance: SetsMemoHit counts sets served without computing
	// them, from a target's memo vector or the session's source vector.
	// Under a shared cross-shard memo the split depends on scheduling
	// (which worker publishes a target first); the SUM is
	// deterministic, and SetSize observes every consumed set so its
	// distribution is deterministic too.
	SetsComputed uint64
	SetsMemoHit  uint64

	// Execs counts engine executions actually performed (served sets
	// contribute nothing — so this is scheduling-dependent whenever the
	// memo is shared).
	Execs uint64

	// SetSize is the |behaviour set| distribution over every set
	// consumed: concrete return values plus one per UB/poison/undef/
	// void flag.
	SetSize telemetry.LocalHist

	// Engine accumulates the executors' counters (steps, frames).
	Engine core.EngineMetrics
}

// setSize is the histogram measure of a behaviour set.
func setSize(b BehaviorSet) uint64 {
	n := uint64(b.Rets.Len())
	for _, f := range []bool{b.UB, b.Poison, b.Undef, b.Void} {
		if f {
			n++
		}
	}
	return n
}

// observe records one consumed behaviour set.
func (m *CheckMetrics) observe(b BehaviorSet, memoHit bool, execs uint64) {
	if m == nil {
		return
	}
	if memoHit {
		m.SetsMemoHit++
	} else {
		m.SetsComputed++
		m.Execs += execs
	}
	m.SetSize.Observe(setSize(b))
}

// Add folds o into m (shard-order merge).
func (m *CheckMetrics) Add(o *CheckMetrics) {
	m.Checks += o.Checks
	m.Inputs += o.Inputs
	m.SetsComputed += o.SetsComputed
	m.SetsMemoHit += o.SetsMemoHit
	m.Execs += o.Execs
	for i, c := range o.SetSize.Buckets {
		m.SetSize.Buckets[i] += c
	}
	m.SetSize.Sum += o.SetSize.Sum
	m.Engine.Add(o.Engine)
}

// Publish folds the counters into reg. Checks, Inputs, and the
// set-size distribution are Deterministic unconditionally; the
// computed/memo-hit split, the exec count, and the engine counters
// take memoClass — pass Deterministic when no memo (or a private
// per-shard memo) is in play and Scheduling when a shared cross-shard
// memo makes the split a race.
func (m *CheckMetrics) Publish(reg *telemetry.Registry, memoClass telemetry.Class) {
	if m == nil || reg == nil {
		return
	}
	reg.Counter("check_checks_total", telemetry.Deterministic, "refinement checks run").Add(m.Checks)
	reg.Counter("check_inputs_total", telemetry.Deterministic, "input tuples swept").Add(m.Inputs)
	var counts [telemetry.HistBuckets]uint64
	var n uint64
	for i, c := range m.SetSize.Buckets {
		counts[i] = c
		n += c
	}
	if n > 0 {
		reg.Histogram("check_set_size", telemetry.Deterministic, "behaviour-set sizes consumed").
			AddBuckets(&counts, m.SetSize.Sum)
	}
	reg.Counter("check_sets_computed_total", memoClass, "behaviour sets enumerated").Add(m.SetsComputed)
	reg.Counter("check_sets_memo_hits_total", memoClass, "behaviour sets served by the memo").Add(m.SetsMemoHit)
	reg.Counter("check_execs_total", memoClass, "engine executions performed").Add(m.Execs)
	m.Engine.Publish(reg, memoClass)
}
