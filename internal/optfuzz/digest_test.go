package optfuzz

import (
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
	"tameir/internal/refine"
)

// TestBehaviorDigestGolden pins the coverage digest an evolving source
// folds from the behaviour sets of one check, for every return-set
// representation: packed i1–i6 and small vectors, keyed i8, wide
// vectors and pointers, plus the UB, poison, undef and void flags. The
// golden values were recorded before behaviour sets were packed and
// rendered through a reused buffer; a drift here would reshuffle the
// mutation corpus and its coverage keys.
func TestBehaviorDigestGolden(t *testing.T) {
	freeze, legacy := core.FreezeOptions(), core.LegacyOptions(core.BranchPoisonNondet)
	cases := []struct {
		name string
		opts core.Options
		fn   string
		want uint64
	}{
		{"i2", freeze, `define i2 @f(i2 %x, i2 %y) {
entry:
  %a = freeze i2 %x
  %r = add i2 %a, %y
  ret i2 %r
}`, 0x22e7842f15aff567},
		{"i1", freeze, `define i1 @f(i2 %x) {
entry:
  %a = freeze i2 %x
  %c = icmp ult i2 %a, 2
  ret i1 %c
}`, 0x6e5b9f88f135aba1},
		{"i4", freeze, `define i4 @f(i4 %x) {
entry:
  %a = freeze i4 %x
  %r = mul i4 %a, %a
  ret i4 %r
}`, 0xe87699c249b1cb},
		{"i6", freeze, `define i6 @f(i6 %x) {
entry:
  %a = freeze i6 %x
  ret i6 %a
}`, 0x1d86501d39b0998d},
		{"i8", freeze, `define i8 @f(i8 %x) {
entry:
  %a = freeze i8 %x
  %r = udiv i8 %a, 3
  ret i8 %r
}`, 0x8aa38768b166a2b7},
		{"v2i3", freeze, `define <2 x i3> @f(<2 x i3> %v) {
entry:
  %a = freeze <2 x i3> %v
  ret <2 x i3> %a
}`, 0x851bc80b9033b723},
		{"v3i2", freeze, `define <3 x i2> @f(<3 x i2> %v) {
entry:
  ret <3 x i2> %v
}`, 0x7b700be3bc206faf},
		{"v2i32", freeze, `define <2 x i32> @f(<2 x i32> %v) {
entry:
  %a = freeze <2 x i32> %v
  ret <2 x i32> %a
}`, 0x153fa159ce6bff03},
		{"ptr", freeze, `define ptr @f(ptr %p) {
entry:
  ret ptr %p
}`, 0xd9b088640cdb3733},
		{"void-ub", freeze, `define void @f(i2 %x) {
entry:
  %r = udiv i2 1, %x
  ret void
}`, 0x6fe781b504f1fb85},
		{"legacy-undef", legacy, `define i2 @f(i2 %x) {
entry:
  %r = add i2 %x, 1
  ret i2 %r
}`, 0xb917f56b35f43c9d},
	}
	for _, c := range cases {
		fn := ir.MustParseFunc(c.fn)
		cfg := refine.DefaultConfig(c.opts, c.opts)
		var digest uint64
		var buf []byte
		cfg.BehaviorHook = func(b refine.BehaviorSet) { digest = behaviorDigest(digest, b, &buf) }
		refine.Check(fn, fn, cfg)
		if digest != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, digest, c.want)
		}
	}
}
