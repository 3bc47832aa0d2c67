package main

import (
	"time"

	"tameir/internal/ir"
	"tameir/internal/optfuzz"
)

// shardRecord is what the timing wrapper saw of one Enumerate call.
type shardRecord struct {
	called  bool
	max     int // the shard budget the campaign passed
	emitted int
	busy    time.Duration // the whole call, callbacks included
	inEmit  time.Duration // inside the campaign's emit callbacks
}

// sourceRecord is the wrapper's log of one campaign: every shard
// enumeration of every epoch, the time spent in Advance, and the
// feedback each epoch handed to Advance (which carries every evolving
// candidate's text and verdict). A fresh source fed the same budgets
// and feedback regenerates the identical candidate stream, which is
// what the replay does.
type sourceRecord struct {
	shards   [][]shardRecord // [epoch][shard]
	epoch    int
	advance  time.Duration
	feedback [][]optfuzz.Feedback
}

func newSourceRecord(src optfuzz.Source) *sourceRecord {
	epochs := 1
	if ev, ok := src.(optfuzz.Evolving); ok && ev.Epochs() > 1 {
		epochs = ev.Epochs()
	}
	rec := &sourceRecord{shards: make([][]shardRecord, epochs)}
	for e := range rec.shards {
		rec.shards[e] = make([]shardRecord, src.Shards())
	}
	return rec
}

// wrapSource returns src behind the timing wrapper. The wrapper keeps
// the optional interfaces of the repository's sources, so the campaign
// sees the same workload: an Evolving source keeps its epochs, and an
// evolving CorpusReporter (the mutation source) its corpus statistics.
func wrapSource(src optfuzz.Source, rec *sourceRecord) optfuzz.Source {
	t := &timedSource{inner: src, rec: rec}
	ev, isEvolving := src.(optfuzz.Evolving)
	cr, isCorpus := src.(optfuzz.CorpusReporter)
	switch {
	case isEvolving && isCorpus:
		return timedEvolvingCorpus{timedEvolving{t, ev}, cr}
	case isEvolving:
		return timedEvolving{t, ev}
	}
	return t
}

type timedSource struct {
	inner optfuzz.Source
	rec   *sourceRecord
}

func (t *timedSource) Name() string               { return t.inner.Name() }
func (t *timedSource) Shards() int                { return t.inner.Shards() }
func (t *timedSource) Budget() int                { return t.inner.Budget() }
func (t *timedSource) Capacities(limit int) []int { return t.inner.Capacities(limit) }

// Enumerate times the inner enumeration and, separately, the
// campaign's callbacks inside it. Shards run concurrently but each
// writes only its own slot; the epoch index changes only in Advance,
// between epochs.
func (t *timedSource) Enumerate(shard, max int, emit func(*ir.Func) bool) (int, bool) {
	var inEmit time.Duration
	start := time.Now()
	n, stopped := t.inner.Enumerate(shard, max, func(f *ir.Func) bool {
		t0 := time.Now()
		ok := emit(f)
		inEmit += time.Since(t0)
		return ok
	})
	t.rec.shards[t.rec.epoch][shard] = shardRecord{
		called: true, max: max, emitted: n, busy: time.Since(start), inEmit: inEmit,
	}
	return n, stopped
}

type timedEvolving struct {
	*timedSource
	ev optfuzz.Evolving
}

func (t timedEvolving) Epochs() int { return t.ev.Epochs() }

func (t timedEvolving) Advance(epoch int, fb []optfuzz.Feedback) {
	t0 := time.Now()
	t.ev.Advance(epoch, fb)
	t.rec.advance += time.Since(t0)
	t.rec.feedback = append(t.rec.feedback, fb)
	t.rec.epoch++
}

type timedEvolvingCorpus struct {
	timedEvolving
	cr optfuzz.CorpusReporter
}

func (t timedEvolvingCorpus) CorpusStats() optfuzz.CorpusStats { return t.cr.CorpusStats() }
