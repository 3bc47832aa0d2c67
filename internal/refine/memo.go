package refine

import (
	"bytes"
	"slices"
	"strconv"
	"sync/atomic"

	"tameir/internal/cache"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// Memo caches the behaviour vectors of checked target functions across
// refinement checks, keyed by the canonical (function, semantics)
// pair. A vector holds the function's behaviour set on every input of
// Check's deterministic input enumeration, indexed by the input's
// ordinal.
//
// Exhaustive campaigns are dominated by structurally identical work:
// most candidates pass through an optimizer unchanged or collapse to
// one of a few small forms, so the same target functions are checked
// over and over. The memo turns those sweeps into reads. Sources are
// not memoized: an enumerating campaign never repeats a source, so the
// source side keeps a private per-candidate vector in the session
// instead (see MemoSession).
//
// A vector is computed by the Check that first misses on its function
// and published once, complete; it is immutable from then on, so a
// Check resolves its target's entry with one probe of the index and
// reads every input without locks. A Check that refutes before the
// last input publishes nothing. Incomplete sets leave their slot empty
// — they depend on enumeration bounds in a way that is cheap to just
// redo — and a reader recomputes them.
//
// Keys are full canonical strings, not hashes, so a hit can never be a
// collision: a memoized verdict is always the verdict the engine would
// have produced (see TestMemoNeverChangesVerdict).
//
// A Memo IS safe for concurrent use: the index is a cache.StringMap
// split over memoShardCount lock stripes and the counters are atomic,
// so one memo can back every worker of a campaign and hits cross
// worker shards. Each goroutine must drive it through its own
// MemoSession (NewSession), which holds the unshared scratch.
//
// Residency is bounded by entries and by behaviour sets: each entry is
// admitted, when it is published, to a cache.Clock (second-chance)
// ring, and a probe that finds it sets its reference bit. Evicting an
// entry removes it from the index; a Check already reading its vector
// keeps reading it. The ring evicts to admit a new entry once it holds
// the entry cap, and a publish that takes the resident sets past the
// set budget evicts cold entries until they fit again. An eviction can
// cost a recomputation but never changes a verdict
// (TestMemoEvictionKeepsVerdicts).
type Memo struct {
	funcs *cache.StringMap[*memoEntry]
	clock *cache.Clock[*memoEntry]

	hits, lookups atomic.Uint64
	sets          atomic.Int64 // resident behaviour sets
	maxSets       int64        // set budget; see shed
}

// memoShardCount is the lock-striping factor. 64 keeps contention
// negligible at any plausible worker count while costing one FNV hash
// per probe (once per Check).
const memoShardCount = 64

// memoEntry is one function's published behaviour vector. Only the
// reference bit changes after publication.
type memoEntry struct {
	key string // the index key, for removal on eviction
	// sets is indexed by input ordinal. An Incomplete set is never
	// served, so it marks a gap the reader recomputes.
	sets []BehaviorSet
	n    int // complete sets
	ref  atomic.Bool
}

// MemoSession is one goroutine's handle on a shared Memo. It carries
// the scratch that is not safe to share: the key buffers, the target
// vector a missing Check fills before publishing it, and the current
// candidate's source vector. Sessions are cheap; create one per worker
// (Check creates a private one when given a Memo without a Session).
//
// The source vector is keyed by the source's *ir.Func identity, so
// consecutive Checks of one source against several targets (a
// campaign's transforms) sweep it once. That trusts functions not to
// be mutated between Checks sharing a session, the contract
// core.ProgramCache already holds campaigns to.
type MemoSession struct {
	m      *Memo
	keyBuf []byte // the target's rendered key
	srcBuf []byte // the source's, rendered only on a target miss
	fresh  []BehaviorSet
	src    srcVector
}

// srcVector is the behaviour sets of one source on a prefix of Check's
// input enumeration. Check visits inputs in order, so the computed
// sets always form a prefix. Incomplete sets are kept too: the
// enumeration is deterministic, so within one candidate a recomputation
// would only repeat them.
type srcVector struct {
	fn   *ir.Func
	mo   memoOpts
	sets []BehaviorSet
}

// memoOpts is the comparable fingerprint of everything besides the
// function and inputs that determines a behaviour set.
type memoOpts struct {
	opts       core.Options
	srcMode    core.Mode // governs Check's input enumeration
	inputBits  uint      // ditto: the exhaustive-enumeration cutoff
	maxChoices int
	maxFanout  uint64
	maxExecs   int
	fuel       int
}

// DefaultMemoEntries bounds a memo to this many function entries. At
// this size the §6 exhaustive campaign keeps the hit ratio an
// unbounded memo would reach.
const DefaultMemoEntries = 8192

// memoSetsPerEntry sets a memo's behaviour-set budget: an average of
// this many resident sets per entry of the cap. A §6 i2 entry holds up
// to 25 small sets, so the default budget (1<<18) does not bind there.
// A wide i16 entry holds 2^16 sets, and without the budget a campaign
// of them could keep hundreds of millions.
const memoSetsPerEntry = 32

// NewMemo returns a memo holding at most max function entries (0 means
// DefaultMemoEntries) and about max*memoSetsPerEntry behaviour sets.
// When either bound is reached, a clock sweep evicts cold entries to
// make room.
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	return &Memo{
		funcs:   cache.NewStringMap[*memoEntry](memoShardCount),
		clock:   cache.NewClock[*memoEntry](max),
		maxSets: int64(max) * memoSetsPerEntry,
	}
}

// NewSession returns a fresh session over m for use by one goroutine.
func (m *Memo) NewSession() *MemoSession { return &MemoSession{m: m} }

// Hits returns the number of target inputs whose behaviour set was
// read from a published vector (summed over all sessions).
func (m *Memo) Hits() uint64 { return m.hits.Load() }

// Lookups returns the number of target inputs served while the memo
// was consulted: one per input of every Check's target, hit or not.
func (m *Memo) Lookups() uint64 { return m.lookups.Load() }

// Evictions returns the number of entries evicted by the clock, to
// admit a new entry or to meet the set budget.
func (m *Memo) Evictions() uint64 { return m.clock.Evictions() }

// Len returns the number of cached behaviour sets (approximate while
// concurrent publishes are in flight). It stays within the set budget
// except for publishes in flight.
func (m *Memo) Len() int { return int(m.sets.Load()) }

// probe returns the published entry for a rendered key, or nil, and
// marks a found entry recently used.
func (m *Memo) probe(key []byte) *memoEntry {
	e, ok := m.funcs.Get(key)
	if !ok {
		return nil
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e
}

// publish installs a copy of sets as the vector under key, unless it
// holds no set or another session published it first. The clock admits
// the new entry after the stripe is released, keeping the ring →
// stripe lock order.
func (m *Memo) publish(key []byte, sets []BehaviorSet) {
	n := 0
	for _, s := range sets {
		if !s.Incomplete {
			n++
		}
	}
	if n == 0 {
		return
	}
	k := string(key)
	e, created := m.funcs.GetOrCreate(k, func() *memoEntry {
		m.sets.Add(int64(n))
		return &memoEntry{key: k, sets: slices.Clone(sets), n: n}
	})
	if !created {
		return
	}
	m.clock.Admit(e, recentlyUsed, m.evict)
	if m.sets.Load() > m.maxSets {
		m.shed()
	}
}

// recentlyUsed is the clock's second-chance test: it reports whether e
// was probed since the hand last passed, clearing the bit.
func recentlyUsed(e *memoEntry) bool { return e.ref.Swap(false) }

// evict removes e from the index. Checks already reading its vector
// finish with it; the next probe misses.
func (m *Memo) evict(e *memoEntry) {
	m.funcs.Delete(e.key)
	m.sets.Add(-int64(e.n))
}

// shed evicts cold entries while the resident sets exceed the budget.
// Callers hold no stripe lock (the ring → stripe order). Concurrent
// publishes may each shed an entry, so the memo can briefly
// undershoot.
func (m *Memo) shed() {
	for m.sets.Load() > m.maxSets && m.clock.Evict(recentlyUsed, m.evict) {
	}
}

// source returns the session's vector for fn under mo, emptied first
// when it belonged to another source.
func (s *MemoSession) source(fn *ir.Func, mo memoOpts) *srcVector {
	if v := &s.src; v.fn != fn || v.mo != mo {
		clear(v.sets)
		*v = srcVector{fn: fn, mo: mo, sets: v.sets[:0]}
	}
	return &s.src
}

// targetProbe is a Check's view of its target in the memo: the
// published entry, or on a miss where the fresh sets are collected (or
// that the target is the source itself). It counts the target inputs
// it served and flushes them into the shared counters once per Check.
type targetProbe struct {
	s     *MemoSession
	entry *memoEntry
	// same: the target's key equals the source's, so the source
	// vector serves it.
	same          bool
	hits, lookups uint64
}

// probeTarget resolves tgt's entry. On a miss it compares the target's
// text and semantics with the source's, and otherwise starts a fresh
// vector.
func (s *MemoSession) probeTarget(src, tgt *ir.Func, srcMO, tgtMO memoOpts) targetProbe {
	s.keyBuf = appendMemoFuncKey(s.keyBuf[:0], tgt, tgtMO)
	p := targetProbe{s: s, entry: s.m.probe(s.keyBuf)}
	if p.entry == nil {
		if srcMO == tgtMO {
			s.srcBuf = appendMemoFuncKey(s.srcBuf[:0], src, srcMO)
			p.same = bytes.Equal(s.srcBuf, s.keyBuf)
		}
		clear(s.fresh)
		s.fresh = s.fresh[:0]
	}
	return p
}

// publish hands the completed target vector to the memo: the fresh
// sets, or the source vector's when the target is the source.
func (p *targetProbe) publish(sv *srcVector) {
	switch {
	case p.entry != nil:
	case p.same:
		p.s.m.publish(p.s.keyBuf, sv.sets)
	default:
		p.s.m.publish(p.s.keyBuf, p.s.fresh)
	}
}

// flush adds the probe's counts to the memo's.
func (p *targetProbe) flush() {
	if p.lookups > 0 {
		p.s.m.lookups.Add(p.lookups)
	}
	if p.hits > 0 {
		p.s.m.hits.Add(p.hits)
	}
}

// appendMemoFuncKey appends the index key: the semantics/bounds
// fingerprint followed by the canonical function text. Everything the
// behaviour vector (and Check's ordinal enumeration) depends on is in
// here, so equal keys name equal vectors.
func appendMemoFuncKey(b []byte, fn *ir.Func, mo memoOpts) []byte {
	// srcMode and inputBits steer Check's input enumeration, so a
	// vector's ordinals are only meaningful within one (srcMode,
	// inputBits) regime.
	b = strconv.AppendUint(b, uint64(mo.opts.Mode), 10)
	b = strconv.AppendUint(append(b, '|'), uint64(mo.opts.BranchPoison), 10)
	b = strconv.AppendUint(append(b, '|'), uint64(mo.opts.SelectPoisonCond), 10)
	b = strconv.AppendBool(append(b, '|'), mo.opts.SelectArmPoisonEither)
	b = strconv.AppendInt(append(b, '|'), int64(mo.opts.Fuel), 10)
	b = strconv.AppendInt(append(b, '|'), int64(mo.opts.MaxCallDepth), 10)
	b = strconv.AppendUint(append(b, '|'), uint64(mo.srcMode), 10)
	b = strconv.AppendUint(append(b, '|'), uint64(mo.inputBits), 10)
	b = strconv.AppendInt(append(b, '|'), int64(mo.maxChoices), 10)
	b = strconv.AppendUint(append(b, '|'), mo.maxFanout, 10)
	b = strconv.AppendInt(append(b, '|'), int64(mo.maxExecs), 10)
	b = strconv.AppendInt(append(b, '|'), int64(mo.fuel), 10)
	b = append(b, 0)
	return fn.AppendTo(b)
}

func memoOptsOf(opts core.Options, cfg *Config) memoOpts {
	return memoOpts{
		opts:       opts,
		srcMode:    cfg.SrcOpts.Mode,
		inputBits:  cfg.ExhaustiveInputBits,
		maxChoices: cfg.MaxChoices,
		maxFanout:  cfg.MaxFanout,
		maxExecs:   cfg.MaxExecs,
		fuel:       cfg.Fuel,
	}
}
