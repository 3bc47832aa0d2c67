package refine

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// keyedRef is the map-of-keys behaviour set every RetSet must agree
// with: the flags of a BehaviorSet plus its returns by Value.Key().
type keyedRef struct {
	flags BehaviorSet // Rets unused
	rets  map[string]bool
}

func (r keyedRef) String() string {
	var parts []string
	if r.flags.UB {
		parts = append(parts, "UB")
	}
	if r.flags.Poison {
		parts = append(parts, "poison")
	}
	if r.flags.Undef {
		parts = append(parts, "undef")
	}
	var rets []string
	for k := range r.rets {
		rets = append(rets, k)
	}
	sort.Strings(rets)
	parts = append(parts, rets...)
	if r.flags.Void {
		parts = append(parts, "ret void")
	}
	if r.flags.Incomplete {
		parts = append(parts, "(incomplete)")
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (r keyedRef) coversAllConcretes() bool {
	b := r.flags.RetBits
	return b > 0 && b <= 20 && uint64(len(r.rets)) == uint64(1)<<b
}

// refRefines is Refines over keyedRef sets.
func refRefines(src, tgt keyedRef) (bool, string) {
	if src.flags.UB {
		return true, ""
	}
	if src.flags.Incomplete || tgt.flags.Incomplete {
		return false, "inconclusive: behaviour enumeration incomplete"
	}
	if tgt.flags.UB {
		return false, "target has UB, source does not"
	}
	if tgt.flags.Poison && !src.flags.Poison {
		return false, "target returns poison, source cannot"
	}
	if tgt.flags.Undef && !src.flags.Poison && !src.flags.Undef && !src.coversAllConcretes() {
		return false, "target returns undef, source returns neither undef nor poison"
	}
	if src.flags.Poison || src.flags.Undef {
		return true, ""
	}
	missing := ""
	for r := range tgt.rets {
		if !src.rets[r] && (missing == "" || r < missing) {
			missing = r
		}
	}
	if missing != "" {
		return false, "target can return " + missing + ", source cannot"
	}
	if tgt.flags.Void && !src.flags.Void {
		return false, "target returns void, source never returns"
	}
	return true, ""
}

// retPool returns concrete values of ty to draw return streams from:
// the whole domain of a packed type, a sample of a wide one.
func retPool(ty ir.Type, rng *rand.Rand) []core.Value {
	if d := packedDomain(ty); d != nil {
		var vs []core.Value
		for i := range d.keys {
			vs = append(vs, d.value(uint64(i)))
		}
		return vs
	}
	var vs []core.Value
	for i := 0; i < 48; i++ {
		v := core.Value{Ty: ty, Lanes: make([]core.Scalar, ty.NumElems())}
		for l := range v.Lanes {
			v.Lanes[l] = core.C(ir.TruncBits(uint64(rng.Intn(6))<<uint(rng.Intn(int(ty.ElemType().Bits))), ty.ElemType().Bits))
		}
		vs = append(vs, v)
	}
	return vs
}

// TestRetSetMatchesKeyedReference feeds identical return streams into
// RetSet and into a map of keys, for every return type class, and
// requires the same rendering, size, domain coverage, and Refines
// verdict and reason for every pair of sets of one type, and for pairs
// across consecutive types (mixed representations included).
func TestRetSetMatchesKeyedReference(t *testing.T) {
	var tys []ir.Type
	for e := uint(1); e <= maxPackedBits; e++ {
		tys = append(tys, ir.Int(e))
		for n := uint(1); e*n <= maxPackedBits; n++ {
			tys = append(tys, ir.Vec(n, ir.Int(e)))
		}
	}
	tys = append(tys, ir.I8, ir.I32, ir.Vec(2, ir.I32), ir.Ptr)
	rng := rand.New(rand.NewSource(1))
	var prevSets []BehaviorSet
	var prevRefs []keyedRef
	for _, ty := range tys {
		if (packedDomain(ty) != nil) != (ty.Bitwidth() <= maxPackedBits && ty.ElemType().IsInt()) {
			t.Fatalf("%s: wrong representation", ty)
		}
		pool := retPool(ty, rng)
		var sets []BehaviorSet
		var refs []keyedRef
		for trial := 0; trial < 24; trial++ {
			set := BehaviorSet{Rets: newRetSet(ty)}
			if ty.Bitwidth() <= 20 {
				set.RetBits = uint8(ty.Bitwidth())
			}
			set.UB = rng.Intn(8) == 0
			set.Poison = rng.Intn(6) == 0
			set.Undef = rng.Intn(6) == 0
			set.Void = rng.Intn(10) == 0
			set.Incomplete = rng.Intn(12) == 0
			ref := keyedRef{flags: set, rets: map[string]bool{}}
			// Streams repeat values, and some cover the whole pool.
			n := rng.Intn(2 * len(pool))
			if trial%8 == 7 {
				n = 0
			}
			var buf []byte
			for i := 0; i < n; i++ {
				v := pool[rng.Intn(len(pool))]
				if trial%6 == 5 {
					v = pool[i%len(pool)]
				}
				buf = set.Rets.add(v, buf)
				ref.rets[v.Key()] = true
			}
			sets, refs = append(sets, set), append(refs, ref)
		}
		for i := range sets {
			if got, want := sets[i].String(), refs[i].String(); got != want {
				t.Fatalf("%s: String %q, want %q", ty, got, want)
			}
			if got, want := setSize(sets[i]), uint64(len(refs[i].rets)); got-want != setSize(BehaviorSet{
				UB: sets[i].UB, Poison: sets[i].Poison, Undef: sets[i].Undef, Void: sets[i].Void}) {
				t.Fatalf("%s: setSize %d with %d returns", ty, got, want)
			}
			if got, want := sets[i].coversAllConcretes(), refs[i].coversAllConcretes(); got != want {
				t.Fatalf("%s: coversAllConcretes %v, want %v for %s", ty, got, want, refs[i])
			}
			for k := range refs[i].rets {
				if !sets[i].Rets.Contains(k) {
					t.Fatalf("%s: %s lacks %q", ty, sets[i], k)
				}
			}
			pairs := [][2]int{}
			for j := range sets {
				pairs = append(pairs, [2]int{i, j})
			}
			for j := range prevSets {
				pairs = append(pairs, [2]int{i, -1 - j}, [2]int{-1 - j, i})
			}
			pick := func(k int) (BehaviorSet, keyedRef) {
				if k < 0 {
					return prevSets[-1-k], prevRefs[-1-k]
				}
				return sets[k], refs[k]
			}
			for _, pr := range pairs {
				src, srcRef := pick(pr[0])
				tgt, tgtRef := pick(pr[1])
				gotOK, gotWhy := Refines(src, tgt)
				wantOK, wantWhy := refRefines(srcRef, tgtRef)
				if gotOK != wantOK || gotWhy != wantWhy {
					t.Fatalf("%s: Refines(%s, %s) = %v %q, want %v %q",
						ty, src, tgt, gotOK, gotWhy, wantOK, wantWhy)
				}
			}
		}
		prevSets, prevRefs = sets, refs
	}
}

// A set whose mask holds a whole packed domain covers every concrete
// value: the equivalence Refines uses to let a full source match a
// target undef.
func TestRetSetFullDomainCoversUndef(t *testing.T) {
	src := BehaviorSet{Rets: newRetSet(ir.I2), RetBits: 2}
	for v := uint64(0); v < 4; v++ {
		src.Rets.add(core.VC(ir.I2, v), nil)
	}
	if ok, why := Refines(src, BehaviorSet{Undef: true, RetBits: 2}); !ok {
		t.Fatalf("full i2 set does not cover undef: %s", why)
	}
	if src.Rets.mask != src.Rets.dom.full() {
		t.Fatalf("mask %#x, want %#x", src.Rets.mask, src.Rets.dom.full())
	}
}

// Vector parameters enumerate their lanes under the same exhaustive
// cutoff as scalars, and report the lanes' exhaustiveness.
func TestCandidateValuesVectorLanes(t *testing.T) {
	for _, c := range []struct {
		ty         ir.Type
		bits       uint
		n          int
		exhaustive bool
	}{
		{ir.Vec(1, ir.Int(5)), 0, 11, false}, // 10 sampled corners + poison
		{ir.Vec(1, ir.Int(6)), 0, 11, false},
		{ir.Vec(1, ir.Int(5)), 8, 33, true},
		{ir.Vec(1, ir.Int(6)), 8, 65, true},
		{ir.Vec(2, ir.Int(3)), 0, 81, true}, // (8 + poison)^2
		{ir.Vec(3, ir.Int(2)), 0, 125, true},
		{ir.Vec(2, ir.Int(3)), 2, 64, false}, // (7 sampled + poison)^2
	} {
		vs, ex := candidateValuesBits(c.ty, core.Freeze, c.bits)
		if len(vs) != c.n || ex != c.exhaustive {
			t.Errorf("%s (bits %d): %d values, exhaustive=%v; want %d, %v", c.ty, c.bits, len(vs), ex, c.n, c.exhaustive)
		}
		seen := map[string]bool{}
		for _, v := range vs {
			if !v.Ty.Equal(c.ty) || seen[v.Key()] {
				t.Fatalf("%s: bad or repeated candidate %s", c.ty, v)
			}
			seen[v.Key()] = true
		}
	}
	src := ir.MustParseFunc(`define <1 x i5> @f(<1 x i5> %v) {
entry:
  ret <1 x i5> %v
}`)
	opts := core.FreezeOptions()
	if r := Check(src, src, DefaultConfig(opts, opts)); r.Status != Inconclusive || r.Exhaustive {
		t.Fatalf("sampled <1 x i5> input reported %s, exhaustive=%v", r, r.Exhaustive)
	}
}

// Check streams its inputs in CandidateValues' cartesian order (the
// last parameter fastest), which memo ordinals depend on.
func TestCheckInputOrder(t *testing.T) {
	src := ir.MustParseFunc(`define i2 @f(i2 %a, <2 x i1> %v, i8 %b) {
entry:
  ret i2 %a
}`)
	for _, mode := range []core.Mode{core.Freeze, core.Legacy} {
		opts := core.FreezeOptions()
		if mode == core.Legacy {
			opts = core.LegacyOptions(core.BranchPoisonNondet)
		}
		var want []string
		var lists [][]core.Value
		for _, p := range src.Params {
			vs, _ := CandidateValues(p.Ty, mode)
			lists = append(lists, vs)
		}
		for _, a := range lists[0] {
			for _, v := range lists[1] {
				for _, b := range lists[2] {
					want = append(want, argsKey([]core.Value{a, v, b}))
				}
			}
		}
		var got []string
		var spaces []paramSpace
		for _, p := range src.Params {
			ps, _ := paramSpaceOf(p.Ty, mode, 0)
			spaces = append(spaces, ps)
		}
		od, args := newOdometer(spaces, nil)
		for {
			got = append(got, argsKey(args))
			if !od.next() {
				break
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v: odometer order diverges from the candidate product (%d vs %d inputs)", mode, len(got), len(want))
		}
		if r := Check(src, src, DefaultConfig(opts, opts)); r.Inputs != len(want) {
			t.Fatalf("%v: Check swept %d inputs, want %d", mode, r.Inputs, len(want))
		}
	}
}

// A counterexample reports the vector input the odometer stood on when
// the check refuted.
func TestCounterExampleVectorArgs(t *testing.T) {
	opts := core.FreezeOptions()
	r := check(t, `define <2 x i1> @f(<2 x i1> %v) {
entry:
  ret <2 x i1> %v
}`, `define <2 x i1> @f(<2 x i1> %v) {
entry:
  ret <2 x i1> <i1 0, i1 0>
}`, opts, opts)
	wantStatus(t, r, Refuted)
	if got := r.CE.String(); !strings.HasPrefix(got, "args(<2 x i1> <0, 1>)") {
		t.Fatalf("counterexample %s", got)
	}
}

// A warm executor sweeping an i2-returning function allocates nothing
// per computed behaviour set, memo lookup and store included.
func TestBehaviorSweepAllocs(t *testing.T) {
	fn := ir.MustParseFunc(`define i2 @f(i2 %x, i2 %y) {
entry:
  %a = freeze i2 %x
  %r = add i2 %a, %y
  ret i2 %r
}`)
	opts := core.FreezeOptions()
	cfg := DefaultConfig(opts, opts)
	cfg.Tier = core.TierPolicy{}
	cfg.Oracle = core.NewEnumOracle(cfg.MaxChoices, cfg.MaxFanout)
	cfg.Memo = NewMemo(0)
	cfg.Session = cfg.Memo.NewSession()
	// Every ordinal is new, so every lookup misses; the first store
	// sizes the entry's slots for the whole ordinal space.
	sd := &side{fn: fn, opts: opts, inputs: memoPreallocInputs}
	args := []core.Value{core.VPoison(ir.I2), core.VC(ir.I2, 1)}
	ordinal := 0
	sweep := func() {
		if set := behaviorsAt(sd, args, ordinal, &cfg); set.Rets.Len() != 4 {
			t.Fatalf("sweep returned %s", set)
		}
		ordinal++
	}
	sweep() // compile the executor, resolve the memo entry
	if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
		t.Fatalf("%v allocations per computed set, want 0", allocs)
	}
	if cfg.Memo.Hits() != 0 {
		t.Fatalf("%d memo hits, want every lookup to miss", cfg.Memo.Hits())
	}
}

// full is the mask holding every value of the domain.
func (d *retDomain) full() uint64 {
	return ^uint64(0) >> (64 - len(d.keys))
}
