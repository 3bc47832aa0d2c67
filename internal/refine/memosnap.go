package refine

import (
	"sort"

	"tameir/internal/ir"
)

// Memo persistence: Snapshot serializes a memo's behaviour sets,
// LoadSnapshot installs a snapshot into a (typically fresh) memo.
// Together with cache.Dir's versioned, fingerprinted files this is
// the -cache-dir warm start for campaigns.
//
// The correctness story is the same one the in-memory memo already
// tells: first-level keys are the full semantics fingerprint plus the
// canonical function text, second-level keys are the full input-vector
// key (or the ordinal in Check's deterministic enumeration, which that
// same first-level key pins). Nothing in a key is process-specific, so
// a reloaded entry answers a lookup with exactly the set a cold run
// would have computed — provided the build's semantics didn't change
// between runs, which is what the snapshot fingerprint
// (core.SemanticsFingerprint) rejects wholesale. Entries loaded from
// disk are flagged so their hits are countable as
// cache_disk_hits_total.

// MemoSnapshot is the serializable content of a Memo, in
// deterministic (sorted) order so identical memo contents encode to
// identical bytes.
type MemoSnapshot struct {
	Entries []MemoSnapshotEntry
}

// MemoSnapshotEntry is one per-function entry: its full first-level
// key plus both second levels.
type MemoSnapshotEntry struct {
	FuncKey  string
	Ordinals []OrdinalSetSnapshot
	Args     []ArgSetSnapshot
}

// OrdinalSetSnapshot is one ordinal-indexed behaviour set.
type OrdinalSetSnapshot struct {
	Ordinal int
	Set     BehaviorSetSnapshot
}

// ArgSetSnapshot is one input-vector-keyed behaviour set.
type ArgSetSnapshot struct {
	Key string
	Set BehaviorSetSnapshot
}

// BehaviorSetSnapshot is a BehaviorSet in a deterministic encoding: a
// packed return set as its type and mask, a keyed one as its sorted
// keys. Incomplete sets are never cached, so the field has no snapshot
// counterpart.
type BehaviorSetSnapshot struct {
	UB, Poison, Undef, Void bool
	RetBits                 uint8
	// Packed is the return type of a packed set ("" for a keyed one)
	// and Mask its members.
	Packed string
	Mask   uint64
	Rets   []string
}

func snapshotSet(b BehaviorSet) BehaviorSetSnapshot {
	s := BehaviorSetSnapshot{UB: b.UB, Poison: b.Poison, Undef: b.Undef, Void: b.Void, RetBits: b.RetBits}
	if d := b.Rets.dom; d != nil {
		s.Packed, s.Mask = d.ty.String(), b.Rets.mask
	} else if b.Rets.Len() > 0 {
		s.Rets = b.Rets.Keys()
	}
	return s
}

// restore rebuilds the set, reporting false for a packed set whose type
// or mask no packed domain admits: file contents are never trusted
// blindly.
func (s BehaviorSetSnapshot) restore() (BehaviorSet, bool) {
	b := BehaviorSet{UB: s.UB, Poison: s.Poison, Undef: s.Undef, Void: s.Void, RetBits: s.RetBits}
	if s.Packed != "" {
		ty, err := ir.ParseType(s.Packed)
		if err != nil {
			return b, false
		}
		d := packedDomain(ty)
		if d == nil || s.Mask&^d.full() != 0 || len(s.Rets) > 0 {
			return b, false
		}
		b.Rets = RetSet{dom: d, mask: s.Mask}
	} else if len(s.Rets) > 0 {
		b.Rets.keys = make(map[string]bool, len(s.Rets))
		for _, k := range s.Rets {
			b.Rets.keys[k] = true
		}
	}
	return b, true
}

// Snapshot captures every cached behaviour set. Safe to call
// concurrently with lookups and stores; the result is a point-in-time
// copy, sorted for deterministic encoding.
func (m *Memo) Snapshot() *MemoSnapshot {
	snap := &MemoSnapshot{}
	m.funcs.Range(func(key string, e *memoFuncEntry) {
		// Range holds the entry's stripe lock, so the reads are safe.
		ent := MemoSnapshotEntry{FuncKey: key}
		for i := range e.byIdx {
			if e.byIdx[i].ok {
				ent.Ordinals = append(ent.Ordinals, OrdinalSetSnapshot{Ordinal: i, Set: snapshotSet(e.byIdx[i].set)})
			}
		}
		for k, s := range e.sets {
			ent.Args = append(ent.Args, ArgSetSnapshot{Key: k, Set: snapshotSet(s.set)})
		}
		if len(ent.Ordinals)+len(ent.Args) > 0 {
			snap.Entries = append(snap.Entries, ent)
		}
	})
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].FuncKey < snap.Entries[j].FuncKey })
	for i := range snap.Entries {
		args := snap.Entries[i].Args
		sort.Slice(args, func(a, b int) bool { return args[a].Key < args[b].Key })
	}
	return snap
}

// LoadSnapshot installs every set from snap that is not already
// cached, marking the installed sets as disk-loaded, and returns the
// number installed. Entries are created through the same clock
// admission and set budget as live ones, so a snapshot larger than
// the memo's bounds simply warms the bounds' worth of entries.
func (m *Memo) LoadSnapshot(snap *MemoSnapshot) int {
	n := 0
	for _, ent := range snap.Entries {
		e := m.entryFor(ent.FuncKey)
		before := n
		e.mu.Lock()
		for _, o := range ent.Ordinals {
			// A negative ordinal would address the string level:
			// never trust file contents blindly.
			set, ok := o.Set.restore()
			if ok && o.Ordinal >= 0 && e.put(memoRef{ordinal: o.Ordinal}, memoSet{set: set, disk: true}) {
				n++
			}
		}
		for _, a := range ent.Args {
			set, ok := a.Set.restore()
			if ok && e.put(memoRef{argsKey: a.Key, ordinal: -1}, memoSet{set: set, disk: true}) {
				n++
			}
		}
		e.mu.Unlock()
		m.sets.Add(int64(n - before))
		m.shed()
	}
	return n
}

// memoSnapshotEqual reports whether two snapshots carry identical
// contents — the round-trip property the snapshot tests assert.
func memoSnapshotEqual(a, b *MemoSnapshot) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.FuncKey != eb.FuncKey || len(ea.Ordinals) != len(eb.Ordinals) || len(ea.Args) != len(eb.Args) {
			return false
		}
		for j := range ea.Ordinals {
			if ea.Ordinals[j].Ordinal != eb.Ordinals[j].Ordinal || !setSnapshotEqual(ea.Ordinals[j].Set, eb.Ordinals[j].Set) {
				return false
			}
		}
		for j := range ea.Args {
			if ea.Args[j].Key != eb.Args[j].Key || !setSnapshotEqual(ea.Args[j].Set, eb.Args[j].Set) {
				return false
			}
		}
	}
	return true
}

func setSnapshotEqual(a, b BehaviorSetSnapshot) bool {
	if a.UB != b.UB || a.Poison != b.Poison || a.Undef != b.Undef || a.Void != b.Void ||
		a.RetBits != b.RetBits || a.Packed != b.Packed || a.Mask != b.Mask || len(a.Rets) != len(b.Rets) {
		return false
	}
	for i := range a.Rets {
		if a.Rets[i] != b.Rets[i] {
			return false
		}
	}
	return true
}
