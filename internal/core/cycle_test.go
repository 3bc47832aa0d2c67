package core

import (
	"math/rand"
	"slices"
	"testing"

	"tameir/internal/ir"
)

func TestEnumOracleSettled(t *testing.T) {
	o := NewEnumOracle(2, 4)
	if o.Settled() {
		t.Fatal("fresh oracle settled")
	}
	o.Choose(2)
	o.Choose(2)
	if o.Settled() {
		t.Fatal("settled at MaxChoices before overflowing: the next choice still sets Overflowed")
	}
	if v := o.Choose(2); v != 0 || !o.Overflowed || !o.Settled() {
		t.Fatalf("choice past MaxChoices: got %d, overflowed %t, settled %t; want 0, true, true", v, o.Overflowed, o.Settled())
	}
	if !o.Next() {
		t.Fatal("Next exhausted after one execution")
	}
	o.Reset()
	if o.Settled() {
		t.Fatal("settled with a replay path left to use")
	}
	o.Choose(2)
	o.Choose(2)
	if !o.Settled() {
		t.Fatal("replay used up at MaxChoices with Overflowed still set, yet not settled")
	}

	wide := NewEnumOracle(4, 2)
	wide.Choose(3) // over MaxFanout: overflows, but the path has room
	if !wide.Overflowed || wide.Settled() {
		t.Fatalf("fanout overflow: overflowed %t, settled %t; want true, false", wide.Overflowed, wide.Settled())
	}
}

// TestEnumOracleSettledChoiceIsInert drives random operation sequences
// and checks the property the cycle detector rests on: a Choose made
// while the oracle is Settled returns 0 and changes nothing.
func TestEnumOracleSettledChoiceIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	settledChoices := 0
	for round := 0; round < 200; round++ {
		o := NewEnumOracle(1+rng.Intn(4), uint64(1+rng.Intn(4)))
		for op := 0; op < 60; op++ {
			switch rng.Intn(8) {
			case 0:
				o.Reset()
			case 1:
				if !o.Next() {
					o.Clear(o.MaxChoices, o.MaxFanout)
				}
				o.Reset()
			default:
				settled := o.Settled()
				path, limits, pos, over := slices.Clone(o.path), slices.Clone(o.limits), o.pos, o.Overflowed
				v := o.Choose(uint64(1 + rng.Intn(6)))
				if !settled {
					continue
				}
				settledChoices++
				if v != 0 || !slices.Equal(o.path, path) || !slices.Equal(o.limits, limits) || o.pos != pos || o.Overflowed != over || !o.Settled() {
					t.Fatalf("round %d op %d: a settled Choose changed the oracle or returned %d", round, op, v)
				}
			}
		}
	}
	if settledChoices == 0 {
		t.Fatal("no choice was made on a settled oracle")
	}
}

// TestCycleCutNeedsSettledOracle runs a loop that reads undef on every
// iteration. Under an EnumOracle, which settles after its 16 choices,
// the executor cuts it; under RandOracle, which has no Settled method,
// every choice starts a new epoch and the loop runs its fuel out. Both
// end in the same timeout after the same number of steps.
func TestCycleCutNeedsSettledOracle(t *testing.T) {
	m, err := ir.ParseModule(`define void @f() {
entry:
  br label %loop
loop:
  %u = icmp eq i1 undef, 1
  br i1 %u, label %loop, label %loop
}`)
	if err != nil {
		t.Fatal(err)
	}
	opts := LegacyOptions(BranchPoisonNondet)
	opts.Fuel = 4096
	ex := NewExecutor(Compile(m.Funcs[0], opts))
	for _, tc := range []struct {
		name string
		o    Oracle
		cuts uint64
	}{
		{"enum", NewEnumOracle(16, 2), 1},
		{"rand", NewRandOracle(1), 0},
	} {
		before := *ex.Metrics()
		out := ex.Run(nil, tc.o)
		got := *ex.Metrics()
		if out.Kind != OutTimeout || got.Steps-before.Steps != 4096 || got.CycleCuts-before.CycleCuts != tc.cuts {
			t.Errorf("%s: outcome %s, steps %d, cuts %d; want timeout, 4096, %d",
				tc.name, out, got.Steps-before.Steps, got.CycleCuts-before.CycleCuts, tc.cuts)
		}
	}
}
