package refine

import (
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

func check(t *testing.T, srcIR, tgtIR string, srcOpts, tgtOpts core.Options) Result {
	t.Helper()
	src := ir.MustParseFunc(srcIR)
	tgt := ir.MustParseFunc(tgtIR)
	return Check(src, tgt, DefaultConfig(srcOpts, tgtOpts))
}

func wantStatus(t *testing.T, r Result, want Status) {
	t.Helper()
	if r.Status != want {
		t.Fatalf("status %v, want %v: %s", r.Status, want, r)
	}
}

// Section 2.4: with nsw, (a+b > a)  ==>  (b > 0) is a valid transform.
func TestNswCmpTransformValid(t *testing.T) {
	src := `define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`
	tgt := `define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`
	r := check(t, src, tgt, core.FreezeOptions(), core.FreezeOptions())
	wantStatus(t, r, Verified)
	if !r.Exhaustive {
		t.Error("i2 inputs should be exhaustive")
	}
}

// Section 2.4: without nsw the same transform is invalid (wrap-around).
func TestWrappingCmpTransformInvalid(t *testing.T) {
	src := `define i1 @f(i2 %a, i2 %b) {
entry:
  %add = add i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}`
	tgt := `define i1 @f(i2 %a, i2 %b) {
entry:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}`
	r := check(t, src, tgt, core.FreezeOptions(), core.FreezeOptions())
	wantStatus(t, r, Refuted)
}

// Section 2.4's middle step: defining overflow as *undef* is still too
// weak to justify the comparison transform.
func TestUndefOverflowStillInvalid(t *testing.T) {
	// Model "add that yields undef on overflow" directly: on the
	// overflowing input a=1 (max signed i2), b=1, source returns
	// undef > 1 which can only be false, while target returns true.
	src := `define i1 @f() {
entry:
  %cmp = icmp sgt i2 undef, 1
  ret i1 %cmp
}`
	tgt := `define i1 @f() {
entry:
  ret i1 true
}`
	r := check(t, src, tgt, core.LegacyOptions(core.BranchPoisonIsUB), core.LegacyOptions(core.BranchPoisonIsUB))
	wantStatus(t, r, Refuted)
}

// Section 3.1: rewriting 2*x as x+x is wrong when x may be undef
// (result set grows from evens to everything)...
func TestMulToAddInvalidWithUndef(t *testing.T) {
	src := `define i2 @f() {
entry:
  %y = mul i2 undef, 2
  ret i2 %y
}`
	tgt := `define i2 @f() {
entry:
  %y = add i2 undef, undef
  ret i2 %y
}`
	// The target's two undef uses resolve independently: it can
	// produce odd values the source cannot.
	r := check(t, src, tgt, core.LegacyOptions(core.BranchPoisonIsUB), core.LegacyOptions(core.BranchPoisonIsUB))
	wantStatus(t, r, Refuted)
}

// ...but under the freeze semantics there is no undef, and the same
// rewrite over a parameter is fine (poison*2 = poison+poison = poison).
func TestMulToAddValidUnderFreeze(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %y = mul i2 %x, 2
  ret i2 %y
}`
	tgt := `define i2 @f(i2 %x) {
entry:
  %y = add i2 %x, %x
  ret i2 %y
}`
	r := check(t, src, tgt, core.FreezeOptions(), core.FreezeOptions())
	wantStatus(t, r, Verified)
}

// And the same rewrite is invalid in legacy mode because %x can be the
// undef *parameter*.
func TestMulToAddInvalidLegacyParam(t *testing.T) {
	src := `define i2 @f(i2 %x) {
entry:
  %y = mul i2 %x, 2
  ret i2 %y
}`
	tgt := `define i2 @f(i2 %x) {
entry:
  %y = add i2 %x, %x
  ret i2 %y
}`
	r := check(t, src, tgt, core.LegacyOptions(core.BranchPoisonIsUB), core.LegacyOptions(core.BranchPoisonIsUB))
	wantStatus(t, r, Refuted)
	if r.CE == nil || !r.CE.Args[0].IsUndef() {
		t.Fatalf("counterexample should be undef input: %s", r)
	}
}

// Section 3.4 / PR31633: select %c, %x, undef --> %x is wrong because
// %x could be poison, which is stronger than undef.
func TestSelectUndefArmCollapseInvalid(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %x) {
entry:
  %v = select i1 %c, i2 %x, i2 undef
  ret i2 %v
}`
	tgt := `define i2 @f(i1 %c, i2 %x) {
entry:
  ret i2 %x
}`
	legacy := core.LegacyOptions(core.BranchPoisonIsUB)
	// Under the Figure-5-style chosen-arm-only select (no
	// either-arm-poison leak), c=0 ^ x=poison gives src=undef,
	// tgt=poison.
	legacy.SelectArmPoisonEither = false
	r := check(t, src, tgt, legacy, legacy)
	wantStatus(t, r, Refuted)
}

// Section 3.4: select %c, true, %x --> or %c, %x is invalid when %c
// may be poison under the chosen-arm-only semantics (source with c=1
// returns true; target returns poison when x is poison... the actual
// failing case: c=true, x=poison).
func TestSelectToOrInvalid(t *testing.T) {
	src := `define i1 @f(i1 %c, i1 %x) {
entry:
  %v = select i1 %c, i1 true, i1 %x
  ret i1 %v
}`
	tgt := `define i1 @f(i1 %c, i1 %x) {
entry:
  %v = or i1 %c, %x
  ret i1 %v
}`
	opts := core.FreezeOptions()
	r := check(t, src, tgt, opts, opts)
	wantStatus(t, r, Refuted)
	// The safe version freezes %c (Section 6's InstCombine fix).
	safe := `define i1 @f(i1 %c, i1 %x) {
entry:
  %cf = freeze i1 %c
  %v = or i1 %cf, %x
  ret i1 %v
}`
	// Hmm: freeze(%c) does not help if %x is poison; the actual safe
	// direction keeps the select. or(c, poison) with c frozen is still
	// poison while select(c=1,...) was true. Confirm it is still
	// refuted: the transformation really must be removed or the select
	// semantics changed (the paper's "tension", §3.4).
	r = check(t, src, safe, opts, opts)
	wantStatus(t, r, Refuted)
	// Under the either-arm-poison select semantics the original
	// transform IS sound (that is exactly the tension: each choice
	// breaks a different optimization).
	legacyEither := core.LegacyOptions(core.BranchPoisonIsUB)
	r = check(t, src, tgt, legacyEither, legacyEither)
	wantStatus(t, r, Verified)
}

// SimplifyCFG's phi→select is sound under the Figure 5 semantics.
func TestPhiToSelectValidUnderFreeze(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %e ]
  ret i2 %x
}`
	tgt := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  %x = select i1 %c, i2 %a, i2 %b
  ret i2 %x
}`
	r := check(t, src, tgt, core.FreezeOptions(), core.FreezeOptions())
	wantStatus(t, r, Verified)
}

// ...but NOT under the legacy either-arm-poison select: the branch
// never evaluates the untaken arm, the select leaks its poison.
func TestPhiToSelectInvalidUnderEitherArmSelect(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %e ]
  ret i2 %x
}`
	tgt := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  %x = select i1 %c, i2 %a, i2 %b
  ret i2 %x
}`
	legacy := core.LegacyOptions(core.BranchPoisonIsUB)
	r := check(t, src, tgt, legacy, legacy)
	wantStatus(t, r, Refuted)
}

// Reverse predication (§5.2): select → branches requires freezing the
// condition under the paper's semantics.
func TestSelectToBranchesNeedsFreeze(t *testing.T) {
	src := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  %x = select i1 %c, i2 %a, i2 %b
  ret i2 %x
}`
	noFreeze := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  br i1 %c, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %e ]
  ret i2 %x
}`
	withFreeze := `define i2 @f(i1 %c, i2 %a, i2 %b) {
entry:
  %c2 = freeze i1 %c
  br i1 %c2, label %t, label %e
t:
  br label %m
e:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %e ]
  ret i2 %x
}`
	opts := core.FreezeOptions()
	r := check(t, src, noFreeze, opts, opts)
	wantStatus(t, r, Refuted) // branch on poison is UB, select was not
	r = check(t, src, withFreeze, opts, opts)
	wantStatus(t, r, Verified)
}

// The udiv→select transform of §3.4 ("%r = udiv %a, C" to icmp+select)
// is valid under the Figure 5 select semantics.
func TestUdivToSelectValid(t *testing.T) {
	// With C = 2 on i2: udiv %a, 2 == (a < 2) ? 0 : 1.
	src := `define i2 @f(i2 %a) {
entry:
  %r = udiv i2 %a, 2
  ret i2 %r
}`
	tgt := `define i2 @f(i2 %a) {
entry:
  %c = icmp ult i2 %a, 2
  %r = select i1 %c, i2 0, i2 1
  ret i2 %r
}`
	r := check(t, src, tgt, core.FreezeOptions(), core.FreezeOptions())
	wantStatus(t, r, Verified)
	// Under the select-on-poison-is-UB semantics it is invalid: a
	// poison %a makes the target UB while the source just yields...
	// careful: udiv with poison numerator is poison here, and select
	// on the poison comparison becomes UB.
	ubSel := core.LegacyOptions(core.BranchPoisonIsUB)
	ubSel.SelectPoisonCond = core.SelectPoisonCondUB
	r = check(t, src, tgt, ubSel, ubSel)
	wantStatus(t, r, Refuted)
}

// Refinement direction sanity: a function refines itself; constants
// refine poison; poison does not refine a constant.
func TestRefinementOrder(t *testing.T) {
	poisonFn := `define i2 @f() {
entry:
  ret i2 poison
}`
	constFn := `define i2 @f() {
entry:
  ret i2 1
}`
	undefFn := `define i2 @f() {
entry:
  ret i2 undef
}`
	ubFn := `define i2 @f() {
entry:
  %x = udiv i2 1, 0
  ret i2 %x
}`
	legacy := core.LegacyOptions(core.BranchPoisonIsUB)
	for _, f := range []string{poisonFn, constFn, undefFn} {
		r := check(t, f, f, legacy, legacy)
		if r.Status != Verified {
			t.Errorf("self-refinement failed: %s", r)
		}
	}
	wantStatus(t, check(t, poisonFn, constFn, legacy, legacy), Verified) // const ⊑ poison
	wantStatus(t, check(t, poisonFn, undefFn, legacy, legacy), Verified) // undef ⊑ poison
	wantStatus(t, check(t, undefFn, constFn, legacy, legacy), Verified)  // const ⊑ undef
	wantStatus(t, check(t, constFn, poisonFn, legacy, legacy), Refuted)  // poison ⋢ const
	wantStatus(t, check(t, undefFn, poisonFn, legacy, legacy), Refuted)  // poison ⋢ undef
	wantStatus(t, check(t, constFn, undefFn, legacy, legacy), Refuted)   // undef ⋢ const
	wantStatus(t, check(t, ubFn, constFn, legacy, legacy), Verified)     // anything ⊑ UB
	wantStatus(t, check(t, constFn, ubFn, legacy, legacy), Refuted)      // UB ⋢ const
}

// freeze(freeze(x)) → freeze(x) and freeze(const) → const (§6's
// InstCombine additions) are valid.
func TestFreezeFolds(t *testing.T) {
	opts := core.FreezeOptions()
	src := `define i2 @f(i2 %x) {
entry:
  %a = freeze i2 %x
  %b = freeze i2 %a
  ret i2 %b
}`
	tgt := `define i2 @f(i2 %x) {
entry:
  %a = freeze i2 %x
  ret i2 %a
}`
	wantStatus(t, check(t, src, tgt, opts, opts), Verified)
	src2 := `define i2 @f() {
entry:
  %a = freeze i2 1
  ret i2 %a
}`
	tgt2 := `define i2 @f() {
entry:
  ret i2 1
}`
	wantStatus(t, check(t, src2, tgt2, opts, opts), Verified)
}

// Duplicating a freeze is NOT sound (§5.5, pitfall 1).
func TestFreezeDuplicationInvalid(t *testing.T) {
	opts := core.FreezeOptions()
	src := `define i2 @f(i2 %x) {
entry:
  %y = freeze i2 %x
  %d = sub i2 %y, %y
  ret i2 %d
}`
	tgt := `define i2 @f(i2 %x) {
entry:
  %y1 = freeze i2 %x
  %y2 = freeze i2 %x
  %d = sub i2 %y1, %y2
  ret i2 %d
}`
	wantStatus(t, check(t, src, tgt, opts, opts), Refuted)
}

// Dropping nsw is always sound (refinement allows losing poison).
func TestDropNswSound(t *testing.T) {
	src := `define i2 @f(i2 %a, i2 %b) {
entry:
  %r = add nsw i2 %a, %b
  ret i2 %r
}`
	tgt := `define i2 @f(i2 %a, i2 %b) {
entry:
  %r = add i2 %a, %b
  ret i2 %r
}`
	opts := core.FreezeOptions()
	wantStatus(t, check(t, src, tgt, opts, opts), Verified)
	// And the reverse — adding nsw — is not.
	wantStatus(t, check(t, tgt, src, opts, opts), Refuted)
}

func TestBehaviorsIncompleteOnTimeout(t *testing.T) {
	fn := ir.MustParseFunc(`define void @spin() {
entry:
  br label %l
l:
  br label %l
}`)
	cfg := DefaultConfig(core.FreezeOptions(), core.FreezeOptions())
	cfg.Fuel = 100
	b := Behaviors(fn, nil, core.FreezeOptions(), cfg)
	if !b.Incomplete {
		t.Error("timeout should mark behaviour set incomplete")
	}
	if ok, _ := Refines(b, b); ok {
		t.Error("incomplete sets must not verify")
	}
}

func TestCandidateValues(t *testing.T) {
	vs, ex := CandidateValues(ir.I2, core.Legacy)
	if !ex || len(vs) != 6 { // 0,1,2,3,poison,undef
		t.Errorf("i2 legacy candidates: %d exhaustive=%v", len(vs), ex)
	}
	vs, ex = CandidateValues(ir.I2, core.Freeze)
	if !ex || len(vs) != 5 { // no undef
		t.Errorf("i2 freeze candidates: %d exhaustive=%v", len(vs), ex)
	}
	vs, ex = CandidateValues(ir.I32, core.Freeze)
	if ex || len(vs) < 5 {
		t.Errorf("i32 candidates: %d exhaustive=%v", len(vs), ex)
	}
	vs, ex = CandidateValues(ir.Vec(2, ir.I1), core.Freeze)
	if !ex || len(vs) != 9 { // 3 lane states ^ 2 lanes
		t.Errorf("<2 x i1> candidates: %d exhaustive=%v", len(vs), ex)
	}
}

func TestCheckSampledIsInconclusive(t *testing.T) {
	src := `define i32 @f(i32 %x) {
entry:
  ret i32 %x
}`
	r := check(t, src, src, core.FreezeOptions(), core.FreezeOptions())
	if r.Status != Inconclusive || r.Exhaustive {
		t.Errorf("i32 identity check should be inconclusive/sampled: %s", r)
	}
}

// TestZeroDivisorIsUBBeforePoisonDividend is the first §6 exhaustive
// candidate the checker used to refute (shard 1, index 9465):
// instsimplify folds "sub x, x" to 0 in front of a udiv. For x = poison
// and a zero divisor the source divides poison by zero. Division by
// zero is immediate UB whatever the dividend, so the source is UB
// there and the fold refines it; the checker must not report poison.
func TestZeroDivisorIsUBBeforePoisonDividend(t *testing.T) {
	for _, op := range []string{"udiv", "urem", "sdiv", "srem"} {
		src := `define i2 @fz(i2 %p0, i2 %p1) {
entry:
  %v0 = sub i2 %p0, %p0
  %v1 = ` + op + ` i2 %v0, %p1
  ret i2 %v1
}`
		tgt := `define i2 @fz(i2 %p0, i2 %p1) {
entry:
  %v1 = ` + op + ` i2 0, %p1
  ret i2 %v1
}`
		for _, opts := range []core.Options{core.FreezeOptions(), core.LegacyOptions(core.BranchPoisonNondet)} {
			r := check(t, src, tgt, opts, opts)
			if r.Status != Verified || !r.Exhaustive {
				t.Errorf("%s mode=%v: %s, want verified (exhaustive)", op, opts.Mode, r)
			}
			fn := ir.MustParseFunc(src)
			args := []core.Value{core.VPoison(ir.I2), core.VC(ir.I2, 0)}
			for _, interp := range []bool{false, true} {
				cfg := DefaultConfig(opts, opts)
				cfg.Interpret = interp
				if b := Behaviors(fn, args, opts, cfg); !b.UB || b.Poison {
					t.Errorf("%s mode=%v interpret=%v: poison %s 0 gave %s, want UB", op, opts.Mode, interp, op, b)
				}
			}
		}
	}
}
