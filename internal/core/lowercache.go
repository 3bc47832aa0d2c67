package core

import (
	"sort"
	"sync"

	"tameir/internal/cache"
	"tameir/internal/ir"
)

// The bytecode lowering cache. Before it, lowering happened once per
// Program — but campaign shards compile the same canonical functions
// over and over under fresh *ir.Func identities (every candidate is
// cloned before transformation), so the same bytecode was re-lowered
// once per shard, per promotion. This cache shares lowered programs
// process-wide, keyed by (canonical text, Options, tier-backend name),
// exactly the keying ISSUE 8 asks for.
//
// Sharing a lowered program across distinct *ir.Func values with the
// same text is only sound when the lowering depends on nothing but the
// text: no call targets (the bytecode links *ir.Func callees), no
// global references and no memory operations (the bytecode runner
// allocates the owning module's globals, so a lowering from module A
// must not serve a function of module B whose heap would lay out
// differently). lowerShareable enforces that; everything else lowers
// per-Program as before. The §6 campaign workload — straight-line
// scalar candidates — is exactly the shareable set, which is why the
// cache pays off where it matters.

// DefaultLowerCacheSize bounds the process-wide lowering cache;
// lowered §6-sized programs are a few hundred bytes each.
const DefaultLowerCacheSize = 4096

// SemanticsFingerprint names the engine's observable semantics for
// persistent cache snapshots (-cache-dir). Bump it whenever a change
// could alter any behaviour set, outcome, or Check's deterministic
// input enumeration — stale snapshots are then rejected wholesale
// instead of replaying last build's verdicts.
const SemanticsFingerprint = "tameir-sem-2"

// lowerKey identifies one shareable lowering. All fields are scalars
// or strings, so the key is comparable and stable across processes.
type lowerKey struct {
	text string
	opts Options // normalized
	tier string  // backend name, e.g. "bytecode"
}

// sharedLowerings is the process-wide lowering cache. A nil
// TierProgram value records a decline, so textually identical
// functions do not re-ask the backend.
var sharedLowerings = cache.NewTable[lowerKey, TierProgram](DefaultLowerCacheSize, 8,
	func(k lowerKey) uint32 { return cache.StringHash(k.text) })

// lowerShareable reports whether fn's lowering is a pure function of
// its canonical text and options — no calls, no globals, no memory —
// and therefore safe to share across function identities and modules.
func lowerShareable(fn *ir.Func) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs() {
			switch in.Op {
			case ir.OpCall, ir.OpAlloca, ir.OpLoad, ir.OpStore:
				return false
			}
			for _, a := range in.Args() {
				if _, ok := a.(*ir.Global); ok {
					return false
				}
			}
		}
	}
	return true
}

// lowerCached resolves fn's tier-2 lowering through the shared cache.
// usedCache=false means the function is not shareable (or no backend
// is registered) and the caller should lower privately; otherwise tp
// is the shared lowering, nil when the backend declined.
func lowerCached(fn *ir.Func, opts Options) (tp TierProgram, usedCache bool) {
	if tierBackend == nil || !lowerShareable(fn) {
		return nil, false
	}
	k := lowerKey{text: fn.String(), opts: opts, tier: tierBackend.Name()}
	tp, _ = sharedLowerings.GetOrCompute(k, func() TierProgram {
		if lowered, ok := tierBackend.Lower(fn, opts); ok {
			return lowered
		}
		return nil
	}, nil)
	return tp, true
}

// LowerCacheStats returns the shared lowering cache's counters.
func LowerCacheStats() cache.Stats { return sharedLowerings.Stats() }

// warmLowerings is the set of lowerings a -cache-dir snapshot recorded
// as hot last run. Compile consults it (when non-empty) to mark fresh
// programs pre-hot, so TierAuto promotes them on their first execution
// instead of re-paying the threshold. Tier choice never affects
// Outcomes — the three-way lockstep tests pin that — so installing a
// snapshot can only move promotion points, never change a verdict.
var warmLowerings struct {
	mu sync.RWMutex
	m  map[lowerKey]struct{}
}

// warmPromoted reports whether (fn, opts) was recorded hot by an
// installed snapshot. The common case — no snapshot installed — is a
// single RLock'd length check, no fn.String().
func warmPromoted(fn *ir.Func, opts Options) bool {
	if tierBackend == nil {
		return false
	}
	warmLowerings.mu.RLock()
	defer warmLowerings.mu.RUnlock()
	if len(warmLowerings.m) == 0 {
		return false
	}
	k := lowerKey{text: fn.String(), opts: opts, tier: tierBackend.Name()}
	_, ok := warmLowerings.m[k]
	return ok
}

// LowerSnapshot is the persistable metadata of the lowering cache:
// which (canonical text, options, tier) triples were lowered, not the
// lowered bytes themselves — re-lowering is cheap once you know what
// to lower.
type LowerSnapshot struct {
	Entries []LowerSnapshotEntry
}

// LowerSnapshotEntry is one recorded lowering.
type LowerSnapshotEntry struct {
	Text string
	Opts Options
	Tier string
}

// LowerSnapshotNow captures the successful lowerings currently
// resident in the shared cache, in deterministic (sorted) order.
func LowerSnapshotNow() *LowerSnapshot {
	s := &LowerSnapshot{}
	sharedLowerings.Range(func(k lowerKey, tp TierProgram) {
		if tp == nil {
			return // a recorded decline is not worth persisting
		}
		s.Entries = append(s.Entries, LowerSnapshotEntry{Text: k.text, Opts: k.opts, Tier: k.tier})
	})
	sort.Slice(s.Entries, func(i, j int) bool {
		a, b := &s.Entries[i], &s.Entries[j]
		if a.Text != b.Text {
			return a.Text < b.Text
		}
		if a.Tier != b.Tier {
			return a.Tier < b.Tier
		}
		return lowerKeyLess(a.Opts, b.Opts)
	})
	return s
}

// lowerKeyLess is an arbitrary-but-total order over Options for
// deterministic snapshots.
func lowerKeyLess(a, b Options) bool {
	ka := [8]int{int(a.Mode), int(a.BranchPoison), int(a.SelectPoisonCond), boolInt(a.SelectArmPoisonEither), a.Fuel, a.MaxCallDepth, boolInt(a.EmitTrace), 0}
	kb := [8]int{int(b.Mode), int(b.BranchPoison), int(b.SelectPoisonCond), boolInt(b.SelectArmPoisonEither), b.Fuel, b.MaxCallDepth, boolInt(b.EmitTrace), 0}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// InstallLowerSnapshot replaces the warm-promotion set with the
// snapshot's entries (normalizing options, dropping entries for other
// backends) and returns how many were installed. Pass nil to clear.
func InstallLowerSnapshot(s *LowerSnapshot) int {
	warmLowerings.mu.Lock()
	defer warmLowerings.mu.Unlock()
	warmLowerings.m = nil
	if s == nil || tierBackend == nil {
		return 0
	}
	name := tierBackend.Name()
	n := 0
	for _, e := range s.Entries {
		if e.Tier != name {
			continue
		}
		if warmLowerings.m == nil {
			warmLowerings.m = make(map[lowerKey]struct{}, len(s.Entries))
		}
		warmLowerings.m[lowerKey{text: e.Text, opts: e.Opts.normalized(), tier: e.Tier}] = struct{}{}
		n++
	}
	return n
}
