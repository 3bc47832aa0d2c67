package core

import (
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

// lowerKey identifies one shareable lowering. All fields are scalars
// or strings, so the key is comparable.
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
