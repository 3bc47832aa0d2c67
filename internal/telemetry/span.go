package telemetry

import (
	"time"

	"tameir/internal/telemetry/trace"
)

// Scope is a named position in the span hierarchy, bound to a
// registry. Spans started under a scope record into series labelled
// with the scope's slash-joined path, e.g.
// span_wall_ns{span="campaign/shard/check"}. A nil *Scope is the
// disabled state: Child and Start are no-ops returning nil, so
// instrumented code never branches on "spans enabled?" itself. Code
// that cannot afford even that nil check per event (the engine step
// loop) gets the check compiled out instead — see core.Options.
//
// A scope can additionally carry a trace.Recorder (see WithTrace):
// then every span it times also lands in the flight recorder as a
// complete event on the scope's track, and Instant/Counter emit
// point events. Without a recorder those are no-ops, so the
// histogram-only path is unchanged.
//
// All span series are Scheduling class by construction: wall time is
// never reproducible.
type Scope struct {
	reg   *Registry
	path  string
	rec   *trace.Recorder
	track int
}

// NewScope returns a root scope recording into reg. Returns nil (the
// disabled scope) when reg is nil.
func NewScope(reg *Registry, name string) *Scope {
	if reg == nil {
		return nil
	}
	return &Scope{reg: reg, path: name}
}

// Child returns a scope one level deeper in the hierarchy. The
// recorder and track carry over.
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, path: s.path + "/" + name, rec: s.rec, track: s.track}
}

// WithTrace returns a copy of the scope that also emits every span,
// instant, and counter into rec on the given track. A nil rec (or a
// nil scope) returns the scope unchanged — tracing stays opt-in per
// call site.
func (s *Scope) WithTrace(rec *trace.Recorder, track int) *Scope {
	if s == nil || rec == nil {
		return s
	}
	return &Scope{reg: s.reg, path: s.path, rec: rec, track: track}
}

// Traced reports whether spans under this scope reach a recorder.
func (s *Scope) Traced() bool { return s != nil && s.rec != nil }

// Instant emits a point event named under the scope's path into the
// attached recorder (no-op without one). Args are flattened key/value
// pairs carried into the trace.
func (s *Scope) Instant(name string, args ...string) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.Instant(s.track, s.path+"/"+name, args...)
}

// Counter emits a numeric sample into the attached recorder (no-op
// without one). Unlike registry counters the name is NOT path-joined:
// counter series are trace-global so CI assertions can read them
// without knowing which scope sampled them.
func (s *Scope) Counter(name string, value int64) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.Counter(s.track, name, value)
}

// Span is one in-flight timed region. End it exactly once.
type Span struct {
	hist  Histogram
	start time.Time
	rec   *trace.Recorder
	name  string
	track int
}

// Start begins a span named under the scope's path. The histogram
// handle is resolved here (one registry lock), so End is lock-free.
func (s *Scope) Start(name string) *Span {
	if s == nil {
		return nil
	}
	path := s.path
	if name != "" {
		path = path + "/" + name
	}
	sp := &Span{
		hist:  s.reg.Histogram(SpanSeries(path), Scheduling, "span wall time in nanoseconds"),
		start: time.Now(),
	}
	if s.rec != nil {
		sp.rec, sp.name, sp.track = s.rec, path, s.track
	}
	return sp
	// The histogram's _count is the number of times the span ran and
	// _sum the total nanoseconds — the same two numbers a classic
	// start/stop timer pair would report, plus a latency distribution.
}

// SpanSeries names the histogram that spans at path record into.
func SpanSeries(path string) string { return L("span_wall_ns", "span", path) }

// End records the span's elapsed wall time. Safe on a nil span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	d := time.Since(sp.start)
	sp.hist.Observe(uint64(d))
	if sp.rec != nil {
		sp.rec.Complete(sp.track, sp.name, sp.start, d)
	}
}

// Timed runs fn inside a span — convenience for whole-function
// regions.
func (s *Scope) Timed(name string, fn func()) {
	sp := s.Start(name)
	fn()
	sp.End()
}
