package refine

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tameir/internal/cache"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// Memo caches behaviour sets across refinement checks, keyed by the
// canonical (function, semantics, input vector) triple.
//
// Exhaustive campaigns are dominated by structurally identical work:
// most candidates pass through an optimizer unchanged or collapse to
// one of a few small forms, so the same behaviour sets are re-derived
// over and over. The memo turns those derivations into lookups.
//
// The cache is two-level so the hot path never touches the expensive
// part of the key. The first level maps the canonical function text
// (plus a semantics/bounds fingerprint) to a per-function entry; a
// per-session two-slot identity cache — two slots because Check
// alternates between src and tgt on every input — resolves repeat
// (function, options) pairs by pointer comparison, so the function is
// printed once per Check side, not once per input. The second level
// maps the input vector's short key (or its ordinal in Check's
// deterministic input enumeration) to its behaviour set.
//
// Keys are full canonical strings, not hashes, so a hit can never be a
// collision: a memoized verdict is always the verdict the engine would
// have produced (see TestMemoNeverChangesVerdict). Entries whose sets
// are Incomplete are not cached — they depend on enumeration bounds in
// a way that is cheap to just redo. The identity cache assumes
// functions are not mutated between checks that share a Memo; the
// pipeline upholds this by checking sources it never mutates and
// transforming private clones.
//
// A Memo IS safe for concurrent use: the function table is a
// cache.StringMap split over memoShardCount lock stripes and the
// counters are atomic, so one memo can back every worker of a campaign
// and hits cross worker shards. Each goroutine must drive it through
// its own MemoSession (NewSession), which holds the only unshared
// state — the identity cache.
//
// Residency is bounded per function and by behaviour sets: each
// per-function entry is admitted once, when it is created, to a
// cache.Clock (second-chance) ring, and a hit sets the entry's
// reference bit under the stripe lock the lookup already holds.
// Evicting an entry removes it from the index and drops all of its
// behaviour sets. The ring evicts to admit a new entry once it holds
// the entry cap, and a store that takes the resident sets past the set
// budget evicts cold entries until they fit again, so neither the
// index (key text included) nor the sets outgrow their bounds however
// many inputs a function has. Sessions that still hold an evicted
// entry in their identity cache see it marked dead and re-resolve it
// by key. An eviction can cost a recomputation but never changes a
// verdict (TestMemoEvictionKeepsVerdicts).
type Memo struct {
	funcs *cache.StringMap[*memoFuncEntry]
	clock *cache.Clock[*memoFuncEntry]

	hits, lookups atomic.Uint64
	sets          atomic.Int64 // resident behaviour sets
	maxSets       int64        // set budget; see shed
}

// memoShardCount is the lock-striping factor. 64 keeps contention
// negligible at any plausible worker count while costing one FNV hash
// per per-function entry resolution (once per Check side, thanks to
// the session identity cache).
const memoShardCount = 64

type memoFuncEntry struct {
	key string      // the first-level key, for removal on eviction
	mu  *sync.Mutex // home stripe lock; guards all mutable state below

	ref  bool        // clock reference bit, set on hit
	dead atomic.Bool // evicted: out of the index, holds no sets
	n    int         // resident sets across both levels

	// sets is the generic second level, keyed by input-vector text.
	sets map[string]memoSet
	// byIdx is the fast second level used by Check, keyed by the input
	// vector's ordinal in Check's deterministic enumeration. Sound
	// because the fingerprint pins everything the sequence depends on:
	// the parameter types (via the function text) and the source mode.
	byIdx []memoSet
}

type memoSet struct {
	set BehaviorSet
	ok  bool // the slot holds a set (byIdx has gaps)
}

// MemoSession is one goroutine's handle on a shared Memo. It carries
// the two-slot function-identity cache, which is the only part of the
// memo machinery that is not safe to share. Sessions are cheap; create
// one per worker (Check creates a private one when given a Memo
// without a Session).
type MemoSession struct {
	m        *Memo
	ident    [2]memoIdent
	identPos int
	keyBuf   []byte // reused first-level key rendering buffer
}

type memoIdent struct {
	fn    *ir.Func
	opts  memoOpts
	entry *memoFuncEntry
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

// memoRef carries a resolved slot from lookup to store so the key work
// is not repeated on the put path. ordinal < 0 means the string-keyed
// level addressed by argsKey; otherwise byIdx[ordinal], and inputs,
// when positive, is the size of the ordinal space, so a small byIdx is
// allocated once at full length.
type memoRef struct {
	entry   *memoFuncEntry
	argsKey string
	ordinal int
	inputs  int
}

// memoPreallocInputs is the largest ordinal space whose byIdx is
// allocated at full length on the first store. Wider spaces (an i16
// parameter has 2^16+ inputs) grow on demand, so a check that refutes
// at its first input does not pay for all of them.
const memoPreallocInputs = 256

// DefaultMemoEntries bounds a memo to this many per-function entries.
// At this size the §6 exhaustive campaign keeps the hit ratio an
// unbounded memo would reach.
const DefaultMemoEntries = 8192

// memoSetsPerEntry sets a memo's behaviour-set budget: an average of
// this many resident sets per entry of the cap. A §6 i2 entry holds up
// to 25 small sets, and the §6 campaign fills the default cap with
// about 205k, so the default budget (1<<18) does not bind there; a
// budget below that costs it hits. A wide i16 entry can hold 2^16
// sets, and without the budget a campaign of them could keep hundreds
// of millions.
const memoSetsPerEntry = 32

// NewMemo returns a memo holding at most max per-function entries (0
// means DefaultMemoEntries) and about max*memoSetsPerEntry behaviour
// sets. When either bound is reached, a clock sweep evicts cold
// entries, with all their sets, to make room.
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	return &Memo{
		funcs:   cache.NewStringMap[*memoFuncEntry](memoShardCount),
		clock:   cache.NewClock[*memoFuncEntry](max),
		maxSets: int64(max) * memoSetsPerEntry,
	}
}

// NewSession returns a fresh session over m for use by one goroutine.
func (m *Memo) NewSession() *MemoSession { return &MemoSession{m: m} }

// Hits returns the number of lookups answered from the cache (summed
// over all sessions).
func (m *Memo) Hits() uint64 { return m.hits.Load() }

// Lookups returns the total number of lookups.
func (m *Memo) Lookups() uint64 { return m.lookups.Load() }

// Evictions returns the number of per-function entries evicted by the
// clock, to admit a new entry or to meet the set budget.
func (m *Memo) Evictions() uint64 { return m.clock.Evictions() }

// Len returns the number of cached behaviour sets (approximate while
// concurrent stores are in flight). It stays within the set budget
// except for stores in flight.
func (m *Memo) Len() int { return int(m.sets.Load()) }

// entryFor resolves the per-function entry for a fully rendered key,
// creating it on first use and admitting it to the clock. The
// constructor keeps the stripe mutex as the entry's guard. Admission
// runs after GetOrCreate has released the stripe, keeping the
// ring → stripe lock order.
func (m *Memo) entryFor(key string) *memoFuncEntry {
	e, created := m.funcs.GetOrCreate(key, func(mu *sync.Mutex) *memoFuncEntry {
		return &memoFuncEntry{key: key, mu: mu}
	})
	if created {
		m.clock.Admit(e, recentlyUsed, m.evict)
	}
	return e
}

// recentlyUsed is the clock's second-chance test: it reports whether e
// was hit since the hand last passed, clearing the bit.
func recentlyUsed(e *memoFuncEntry) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	used := e.ref
	e.ref = false
	return used
}

// evict removes e from the index and drops its sets. Sessions may
// still hold e; the dead mark sends them back to the index, and store
// refuses to refill a dead entry.
func (m *Memo) evict(e *memoFuncEntry) {
	m.funcs.Delete(e.key)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dead.Store(true)
	m.sets.Add(-int64(e.n))
	e.sets, e.byIdx, e.n = nil, nil, 0
}

// shed evicts cold entries while the resident sets exceed the budget.
// Callers hold no stripe lock (the ring → stripe order). Concurrent
// stores may each shed an entry, so the memo can briefly undershoot.
func (m *Memo) shed() {
	for m.sets.Load() > m.maxSets && m.clock.Evict(recentlyUsed, m.evict) {
	}
}

// put installs s in the slot a memoRef addresses unless the slot is
// filled (another session raced the same computation) or e is dead,
// and reports whether it did. Caller holds e.mu.
func (e *memoFuncEntry) put(ref memoRef, s memoSet) bool {
	if e.dead.Load() {
		return false
	}
	s.ok = true
	if ordinal := ref.ordinal; ordinal >= 0 {
		if ordinal >= cap(e.byIdx) {
			n := max(ordinal+1, 2*cap(e.byIdx))
			if ref.inputs <= memoPreallocInputs {
				n = max(n, ref.inputs)
			}
			grown := make([]memoSet, len(e.byIdx), n)
			copy(grown, e.byIdx)
			e.byIdx = grown
		}
		if ordinal >= len(e.byIdx) {
			e.byIdx = e.byIdx[:ordinal+1] // slots past len were never written
		}
		if e.byIdx[ordinal].ok {
			return false
		}
		e.byIdx[ordinal] = s
	} else {
		if _, dup := e.sets[ref.argsKey]; dup {
			return false
		}
		if e.sets == nil {
			e.sets = make(map[string]memoSet)
		}
		e.sets[ref.argsKey] = s
	}
	e.n++
	return true
}

// funcEntry resolves the per-function cache level, through the
// session's identity cache when possible.
func (s *MemoSession) funcEntry(fn *ir.Func, mo memoOpts) *memoFuncEntry {
	for i := range s.ident {
		id := &s.ident[i]
		if id.fn == fn && id.opts == mo {
			if id.entry.dead.Load() {
				id.entry = s.m.entryFor(id.entry.key)
			}
			return id.entry
		}
	}
	s.keyBuf = appendMemoFuncKey(s.keyBuf[:0], fn, mo)
	entry := s.m.entryFor(string(s.keyBuf))
	s.ident[s.identPos] = memoIdent{fn: fn, opts: mo, entry: entry}
	s.identPos = (s.identPos + 1) % len(s.ident)
	return entry
}

// appendMemoFuncKey appends the first-level key: the semantics/bounds
// fingerprint followed by the canonical function text. Everything the
// behaviour set (and Check's ordinal enumeration) depends on is in
// here, so equal keys name equal behaviour sets.
func appendMemoFuncKey(b []byte, fn *ir.Func, mo memoOpts) []byte {
	// srcMode and inputBits must be part of the rendered key, not just
	// the identity-cache struct: they steer Check's input enumeration,
	// so the byIdx ordinal space is only stable within one
	// (srcMode, inputBits) regime.
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

func argsKey(args []core.Value) string {
	var b strings.Builder
	b.Grow(len(args) * 8)
	for _, a := range args {
		b.WriteString(a.Key())
		b.WriteByte('\x00')
	}
	return b.String()
}

// lookup resolves args on side sd under cfg; ok reports a hit. The
// returned ref is passed to store to cache a freshly computed set.
// ordinal, when non-negative, is the input vector's position in
// Check's deterministic enumeration and selects the slice-indexed
// level, whose hot path does no string work at all; pass -1 when no
// such ordinal exists. The per-function entry is resolved once per
// side and kept there until it is evicted.
func (s *MemoSession) lookup(sd *side, args []core.Value, ordinal int, cfg *Config) (memoRef, BehaviorSet, bool) {
	s.m.lookups.Add(1)
	entry := sd.entry
	if entry == nil || entry.dead.Load() {
		entry = s.funcEntry(sd.fn, memoOptsOf(sd.opts, cfg))
		sd.entry = entry
	}
	ref := memoRef{entry: entry, ordinal: ordinal}
	if ordinal < 0 {
		ref.argsKey = argsKey(args)
	}
	var hit memoSet
	entry.mu.Lock()
	if ordinal >= 0 {
		if ordinal < len(entry.byIdx) {
			hit = entry.byIdx[ordinal]
		}
	} else {
		hit = entry.sets[ref.argsKey]
	}
	if hit.ok {
		entry.ref = true
	}
	entry.mu.Unlock()
	if !hit.ok {
		return ref, BehaviorSet{}, false
	}
	s.m.hits.Add(1)
	return ref, hit.set, true
}

// store caches a computed set under a ref obtained from lookup.
func (s *MemoSession) store(ref memoRef, set BehaviorSet) {
	if set.Incomplete {
		return
	}
	ref.entry.mu.Lock()
	added := ref.entry.put(ref, memoSet{set: set})
	ref.entry.mu.Unlock()
	if added && s.m.sets.Add(1) > s.m.maxSets {
		s.m.shed()
	}
}
