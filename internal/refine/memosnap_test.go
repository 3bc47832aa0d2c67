package refine

import (
	"path/filepath"
	"reflect"
	"testing"

	"tameir/internal/cache"
	"tameir/internal/core"
	"tameir/internal/ir"
)

// populateMemo runs the shared pair corpus through Check with memo
// enabled and returns the verdicts alongside the memo.
func populateMemo(t *testing.T, opts core.Options, memo *Memo) []Result {
	t.Helper()
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = memo
	var out []Result
	for _, p := range memoPairs {
		if p.legacyOnly && opts.Mode == core.Freeze {
			continue
		}
		out = append(out, Check(ir.MustParseFunc(p.src), ir.MustParseFunc(p.tgt), cfg))
	}
	return out
}

// The snapshot round-trip property: Snapshot → LoadSnapshot into a
// fresh memo → Snapshot is lossless, and the encode → decode leg
// through the real file layer loses nothing either.
func TestMemoSnapshotRoundTrip(t *testing.T) {
	for _, opts := range []core.Options{
		core.FreezeOptions(),
		core.LegacyOptions(core.BranchPoisonNondet),
	} {
		memo := NewMemo(0)
		populateMemo(t, opts, memo)
		snap := memo.Snapshot()
		if len(snap.Entries) == 0 {
			t.Fatal("campaign populated nothing")
		}

		fresh := NewMemo(0)
		if n := fresh.LoadSnapshot(snap); n == 0 {
			t.Fatal("LoadSnapshot installed nothing")
		}
		if again := fresh.Snapshot(); !memoSnapshotEqual(snap, again) {
			t.Fatalf("snapshot round trip lossy:\nbefore: %+v\nafter:  %+v", snap, again)
		}

		path := filepath.Join(t.TempDir(), "memo.snap")
		if err := cache.WriteFile(path, "memo", core.SemanticsFingerprint, snap); err != nil {
			t.Fatal(err)
		}
		var dec MemoSnapshot
		if err := cache.ReadFile(path, "memo", core.SemanticsFingerprint, &dec); err != nil {
			t.Fatal(err)
		}
		if !memoSnapshotEqual(snap, &dec) {
			t.Fatal("file encode→decode lossy")
		}
	}
}

// A warm-started memo must serve the same verdicts a cold one
// computes, and its hits on disk-loaded entries must be counted.
func TestMemoSnapshotWarmStartCountsDiskHits(t *testing.T) {
	opts := core.FreezeOptions()
	cold := NewMemo(0)
	want := populateMemo(t, opts, cold)

	warm := NewMemo(0)
	warm.LoadSnapshot(cold.Snapshot())
	if warm.DiskHits() != 0 {
		t.Fatal("disk hits counted before any lookup")
	}
	got := populateMemo(t, opts, warm)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("warm memo changed verdicts:\ncold: %+v\nwarm: %+v", want, got)
	}
	if warm.DiskHits() == 0 {
		t.Fatal("warm run served no hits from disk-loaded entries")
	}
	if warm.DiskHits() > warm.Hits() {
		t.Fatalf("disk hits %d exceed total hits %d", warm.DiskHits(), warm.Hits())
	}
}

// Loading a snapshot must never overwrite an entry the process already
// computed: live entries win, and the duplicate is not counted as
// installed.
func TestMemoSnapshotLoadDoesNotOverwrite(t *testing.T) {
	opts := core.FreezeOptions()
	memo := NewMemo(0)
	populateMemo(t, opts, memo)
	before := memo.Snapshot()
	if n := memo.LoadSnapshot(before); n != 0 {
		t.Fatalf("reloading a memo's own snapshot installed %d entries, want 0", n)
	}
	if after := memo.Snapshot(); !memoSnapshotEqual(before, after) {
		t.Fatal("self-reload changed contents")
	}
}

// Packed and keyed behaviour sets both survive the snapshot round
// trip, as the same representation rendering the same set, and a
// packed record no domain admits is refused.
func TestMemoSnapshotRoundTripBothRepresentations(t *testing.T) {
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	cfg.Memo = NewMemo(0)
	for _, src := range []string{`define i2 @p(i2 %x) {
entry:
  %a = freeze i2 %x
  ret i2 %a
}`, `define <2 x i3> @v(<2 x i3> %x) {
entry:
  ret <2 x i3> %x
}`, `define i8 @k(i8 %x) {
entry:
  %a = freeze i8 %x
  %r = udiv i8 %a, 7
  ret i8 %r
}`, `define ptr @q(ptr %x) {
entry:
  ret ptr %x
}`} {
		fn := ir.MustParseFunc(src)
		Check(fn, fn, cfg)
	}
	snap := cfg.Memo.Snapshot()
	var packed, keyed int
	for _, e := range snap.Entries {
		for _, o := range e.Ordinals {
			if o.Set.Packed != "" {
				packed++
			}
			if len(o.Set.Rets) > 0 {
				keyed++
			}
			set, ok := o.Set.restore()
			if !ok {
				t.Fatalf("restore refused %+v", o.Set)
			}
			if again := snapshotSet(set); !setSnapshotEqual(again, o.Set) {
				t.Fatalf("set round trip lossy: %+v vs %+v", o.Set, again)
			}
		}
	}
	if packed == 0 || keyed == 0 {
		t.Fatalf("snapshot holds %d packed and %d keyed sets, want both", packed, keyed)
	}

	fresh := NewMemo(0)
	if n := fresh.LoadSnapshot(snap); n == 0 {
		t.Fatal("LoadSnapshot installed nothing")
	}
	if again := fresh.Snapshot(); !memoSnapshotEqual(snap, again) {
		t.Fatal("memo snapshot round trip lossy")
	}
	path := filepath.Join(t.TempDir(), "memo.snap")
	if err := cache.WriteFile(path, "memo", core.SemanticsFingerprint, snap); err != nil {
		t.Fatal(err)
	}
	var dec MemoSnapshot
	if err := cache.ReadFile(path, "memo", core.SemanticsFingerprint, &dec); err != nil {
		t.Fatal(err)
	}
	if !memoSnapshotEqual(snap, &dec) {
		t.Fatal("file encode→decode lossy")
	}

	for _, bad := range []BehaviorSetSnapshot{
		{Packed: "i2", Mask: 1 << 4},                    // outside the domain
		{Packed: "i8", Mask: 1},                         // not a packed type
		{Packed: "i2", Mask: 1, Rets: []string{"i2 0"}}, // both representations
		{Packed: "x"},
	} {
		if _, ok := bad.restore(); ok {
			t.Errorf("restore accepted %+v", bad)
		}
	}
}
