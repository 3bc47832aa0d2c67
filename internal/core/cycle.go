package core

import "slices"

// CycleArmSteps is how many steps an execution takes before its
// engine starts looking for a state cycle. Short executions — nearly
// every §6 candidate — never reach it and pay one integer compare per
// block entry.
const CycleArmSteps = 64

// CycleDetector proves that an execution of a compiled engine can never
// return, so the engine can end it early with exactly the outcome that
// running the fuel out would give. Executions under legacy undef often
// spin in a loop until the fuel is gone; once the enumeration oracle
// has nothing left to decide, every further iteration repeats a state
// already seen.
//
// The engine calls Visit at every block entry of the root activation
// once CycleArmSteps steps have run. The detector follows Brent's
// algorithm: it keeps one snapshot — block, full register file, choice
// epoch — compares each later entry against it, and retakes it after
// 1, 2, 4, … entries, so a cycle of period λ entered after μ entries is
// found within O(μ+λ) entries at O(1) amortized copies each.
//
// A match is exact, not a heuristic, because the snapshot covers all
// state the rest of the execution can depend on:
//
//   - Registers: all of them, vector registers lane by lane (Values
//     are compared by lane contents; a slot's type is fixed by the
//     function, so types need no comparing).
//   - The oracle: every Choose that can change the oracle starts a new
//     epoch. A choice made while the oracle is Settled (see
//     EnumOracle.Settled) changes nothing and returns 0, so it keeps the
//     epoch. An oracle without a Settled method starts a new epoch on
//     every choice.
//   - Memory is not in the snapshot: engines do not detect on programs
//     that can touch memory (needsMem).
//   - Inner calls: only the root activation is checked. A callee starts
//     from a fresh frame, its arguments come from the root's registers,
//     and without memory or oracle change it computes the same result
//     every time, so the root's state determines it.
//
// Fuel is the only state that differs between two equal snapshots, and
// it only ever ends the execution with a timeout. The engine therefore
// charges the remaining fuel at once (Steps += fuel, fuel = 0) and
// returns the timeout Outcome fuel exhaustion returns: Outcome, Steps,
// Execs and the oracle's final state are identical to running the loop
// out. The tree-walking interpreter has no detector on purpose; it is
// the reference the differential test holds both engines to.
//
// A CycleDetector is single-goroutine state owned by one executor.
type CycleDetector struct {
	oracle epochOracle
	armed  bool

	// The snapshot: block (or pc) of the root activation, its register
	// planes, and the choice epoch. at is -1 until the first Visit.
	at    int32
	epoch uint64
	s     []Scalar
	v     []Value

	power, lam int // Brent: snapshot is retaken when lam reaches power
}

// epochOracle is the oracle an armed detector installs in front of the
// execution's own: it counts the choices that may change the oracle.
type epochOracle struct {
	inner   Oracle
	settled interface{ Settled() bool } // nil: every choice may change inner
	epoch   uint64
}

// Choose implements Oracle.
func (o *epochOracle) Choose(n uint64) uint64 {
	if o.settled == nil || !o.settled.Settled() {
		o.epoch++
	}
	return o.inner.Choose(n)
}

// Reset disarms the detector for a new execution.
func (d *CycleDetector) Reset() { d.armed = false }

// Visit records a root block entry at block (or pc) at with register
// planes s and v (either may be nil), and reports whether the same
// state was seen before in this execution: then the execution cycles
// forever. The first Visit of an execution arms the detector by
// installing its epoch-counting oracle in *o, in front of the oracle
// *o held; every later choice of the execution goes through it.
func (d *CycleDetector) Visit(o *Oracle, at int32, s []Scalar, v []Value) bool {
	if !d.armed {
		d.armed = true
		inner := *o
		st, _ := inner.(interface{ Settled() bool })
		d.oracle = epochOracle{inner: inner, settled: st}
		*o = &d.oracle
		d.at, d.power, d.lam = -1, 1, 0
	}
	if at == d.at && d.oracle.epoch == d.epoch && slices.Equal(s, d.s) && valuesEqual(v, d.v) {
		return true
	}
	if d.lam++; d.lam >= d.power {
		d.at, d.epoch = at, d.oracle.epoch
		d.s = append(d.s[:0], s...)
		d.v = append(d.v[:0], v...)
		d.power *= 2
		d.lam = 0
	}
	return false
}

// valuesEqual compares register files lane by lane; an unset register
// (nil Lanes) equals only an unset register.
func valuesEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i].Lanes == nil) != (b[i].Lanes == nil) || !slices.Equal(a[i].Lanes, b[i].Lanes) {
			return false
		}
	}
	return true
}
