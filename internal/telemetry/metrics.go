// Package telemetry is the repo-wide observability layer: a
// dependency-free metrics registry (counters, gauges, histograms),
// lightweight hierarchical spans, a Prometheus-style text exposition
// plus a JSON snapshot format, and a pprof-capable debug server.
//
// The design constraint, inherited from the parallel pipeline, is
// determinism: a campaign's telemetry must be reproducible for any
// worker count, the same way its findings are. Two rules make that
// hold:
//
//  1. Every metric declares a determinism Class. Deterministic metrics
//     are pure functions of the work partition (per-shard counts,
//     verdicts, per-shard cache traffic); Scheduling metrics depend on
//     wall clock or on cross-shard races (span durations, shared-memo
//     hit splits, worker utilization). Expositions group the two
//     separately, so the deterministic section of a snapshot is
//     byte-identical across worker counts while the scheduling section
//     is honest about what it is.
//
//  2. Shard-local registries merge into the campaign registry in shard
//     order (Registry.Merge), the same discipline passes.Stats.Merge
//     follows. Counter and histogram merges are commutative sums, so
//     merged deterministic totals never depend on scheduling.
//
// Hot paths are atomic loads/adds on pre-resolved handles: resolving a
// metric by name takes a lock, incrementing it does not. Layers that
// cannot afford even an uncontended atomic per event (the execution
// engine's step loop) accumulate into plain per-goroutine structs and
// publish once per run; the registry is the meeting point, not the
// accounting mechanism.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Class says whether a metric's value is reproducible across runs of
// the same work partition.
type Class uint8

const (
	// Deterministic: the value is a pure function of the inputs and the
	// shard partition — identical for any worker count.
	Deterministic Class = iota
	// Scheduling: the value depends on goroutine scheduling or the wall
	// clock (durations, shared-cache hit splits, utilization).
	Scheduling
)

// String returns the class name used in expositions.
func (c Class) String() string {
	if c == Scheduling {
		return "scheduling"
	}
	return "deterministic"
}

// Kind discriminates metric types.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus-style kind name.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "counter"
}

// HistBuckets is the number of exponential histogram buckets: bucket i
// counts observations ≤ 2^i, plus a final +Inf bucket. The range (1 …
// 2^31) covers everything the repo observes — behaviour-set sizes,
// nanosecond pass timings, frame counts.
const HistBuckets = 33

// metric is one registered time series. Exactly one of the value
// fields is live, selected by kind.
type metric struct {
	name  string
	kind  Kind
	class Class
	help  string

	c atomic.Uint64 // KindCounter
	g atomic.Int64  // KindGauge
	h *histData     // KindHistogram
}

type histData struct {
	buckets [HistBuckets]atomic.Uint64 // cumulative on snapshot, raw per-bucket here
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op sink: every instrument
// it hands out silently discards updates, so instrumented code never
// needs a "telemetry enabled?" branch of its own.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// resolve returns the named metric, creating it on first use. Names
// are expected to follow the schema documented in DESIGN.md
// ("Telemetry"): snake_case <subsystem>_<noun>[_<unit>][_total], with
// optional {key="value"} labels appended by L. Re-registering a name
// with a different kind or class is a programming error and panics.
func (r *Registry) resolve(name string, kind Kind, class Class, help string) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metrics[name]
	if m == nil {
		m = &metric{name: name, kind: kind, class: class, help: help}
		if kind == KindHistogram {
			m.h = &histData{}
		}
		r.metrics[name] = m
		return m
	}
	if m.kind != kind || m.class != class {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s/%s (was %s/%s)",
			name, kind, class, m.kind, m.class))
	}
	return m
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string, class Class, help string) Counter {
	return Counter{r.resolve(name, KindCounter, class, help)}
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string, class Class, help string) Gauge {
	return Gauge{r.resolve(name, KindGauge, class, help)}
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string, class Class, help string) Histogram {
	return Histogram{r.resolve(name, KindHistogram, class, help)}
}

// FindHistogram returns the histogram registered under name without
// registering one: the zero Histogram, which reads 0, when there is
// none.
func (r *Registry) FindHistogram(name string) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil && m.kind == KindHistogram {
		return Histogram{m}
	}
	return Histogram{}
}

// Counter is a monotonically increasing uint64. The zero Counter (from
// a nil registry) discards updates.
type Counter struct{ m *metric }

// Add increments the counter by n.
func (c Counter) Add(n uint64) {
	if c.m != nil {
		c.m.c.Add(n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c Counter) Value() uint64 {
	if c.m == nil {
		return 0
	}
	return c.m.c.Load()
}

// Gauge is a settable int64 (sizes, depths, signed deltas). The zero
// Gauge discards updates.
type Gauge struct{ m *metric }

// Set replaces the gauge value.
func (g Gauge) Set(v int64) {
	if g.m != nil {
		g.m.g.Store(v)
	}
}

// Add adjusts the gauge by delta (negative to decrease).
func (g Gauge) Add(delta int64) {
	if g.m != nil {
		g.m.g.Add(delta)
	}
}

// Value returns the current gauge value.
func (g Gauge) Value() int64 {
	if g.m == nil {
		return 0
	}
	return g.m.g.Load()
}

// Histogram counts observations in exponential power-of-two buckets
// (≤1, ≤2, ≤4, …, ≤2^31, +Inf). The zero Histogram discards updates.
type Histogram struct{ m *metric }

// BucketOf maps a value to its bucket index — exported for callers
// that accumulate bucket counts themselves (e.g. with atomics) before
// folding them in via AddBuckets.
func BucketOf(v uint64) int { return bucketOf(v) }

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(v - 1) // smallest i with v <= 2^i
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h Histogram) Observe(v uint64) {
	if h.m == nil {
		return
	}
	d := h.m.h
	d.buckets[bucketOf(v)].Add(1)
	d.count.Add(1)
	d.sum.Add(v)
}

// AddBuckets folds locally accumulated bucket counts (same power-of-two
// layout as Observe) plus their sum into the histogram in one shot —
// the publish path for per-goroutine collectors.
func (h Histogram) AddBuckets(counts *[HistBuckets]uint64, sum uint64) {
	if h.m == nil {
		return
	}
	d := h.m.h
	var n uint64
	for i, c := range counts {
		if c != 0 {
			d.buckets[i].Add(c)
			n += c
		}
	}
	d.count.Add(n)
	d.sum.Add(sum)
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	if h.m == nil {
		return 0
	}
	return h.m.h.count.Load()
}

// Sum returns the sum of observed values.
func (h Histogram) Sum() uint64 {
	if h.m == nil {
		return 0
	}
	return h.m.h.sum.Load()
}

// LocalHist is a plain, single-goroutine histogram with the registry
// bucket layout, for hot paths that publish once at the end (see
// Histogram.AddBuckets).
type LocalHist struct {
	Buckets [HistBuckets]uint64
	Sum     uint64
}

// Observe records one observation.
func (l *LocalHist) Observe(v uint64) {
	l.Buckets[bucketOf(v)]++
	l.Sum += v
}

// L renders a metric name with labels in canonical form: keys sorted,
// values quoted, e.g. L("shard_funcs_total", "shard", "0003") →
// `shard_funcs_total{shard="0003"}`. Canonical label order keeps
// snapshot sorting (and therefore the deterministic exposition)
// stable no matter which call site registered the series first.
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("telemetry: L requires key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Merge folds every metric of src into r, creating metrics that do not
// exist yet (kind/class mismatches panic, like re-registration).
// Counters and histograms add; gauges add too, because every gauge in
// this repo is shard-additive (resident sizes, busy seconds). Merging
// per-shard registries in shard order is the deterministic-merge
// discipline; for the commutative sums here even the order is
// immaterial, which is what makes deterministic totals survive any
// scheduling.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, m := range src.snapshotMetrics() {
		switch m.kind {
		case KindCounter:
			r.Counter(m.name, m.class, m.help).Add(m.c.Load())
		case KindGauge:
			r.Gauge(m.name, m.class, m.help).Add(m.g.Load())
		case KindHistogram:
			dst := r.Histogram(m.name, m.class, m.help)
			var counts [HistBuckets]uint64
			for i := range counts {
				counts[i] = m.h.buckets[i].Load()
			}
			dst.AddBuckets(&counts, m.h.sum.Load())
		}
	}
}

// snapshotMetrics returns the registered metrics sorted by name.
func (r *Registry) snapshotMetrics() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
