package core

import (
	"fmt"
	"math/bits"

	"tameir/internal/ir"
)

// saddOverflows reports signed overflow of x+y at width w (operands are
// already in-range w-bit signed values).
func saddOverflows(sx, sy int64, w uint) bool {
	if w < 64 {
		sr := sx + sy // exact: |operands| < 2^62
		return ir.SignExtBits(uint64(sr), w) != sr
	}
	sr := sx + sy // wraps at 64 bits
	return (sy > 0 && sr < sx) || (sy < 0 && sr > sx)
}

// ssubOverflows reports signed overflow of x-y at width w.
func ssubOverflows(sx, sy int64, w uint) bool {
	if w < 64 {
		sr := sx - sy
		return ir.SignExtBits(uint64(sr), w) != sr
	}
	sr := sx - sy
	return (sy < 0 && sr < sx) || (sy > 0 && sr > sx)
}

// smulOverflows reports signed overflow of x*y at width w.
func smulOverflows(sx, sy int64, w uint) bool {
	if w <= 32 {
		sr := sx * sy // exact: |operands| < 2^31
		return ir.SignExtBits(uint64(sr), w) != sr
	}
	// Magnitude arithmetic in uint64; uint64(-sx) is the correct
	// magnitude even for the minimum int64.
	ax, ay := uint64(sx), uint64(sy)
	if sx < 0 {
		ax = uint64(-sx)
	}
	if sy < 0 {
		ay = uint64(-sy)
	}
	neg := (sx < 0) != (sy < 0)
	hi, lo := bits.Mul64(ax, ay)
	if hi != 0 {
		return true
	}
	limit := uint64(1) << (w - 1)
	if neg {
		return lo > limit
	}
	return lo >= limit
}

// umulOverflows reports unsigned overflow of x*y at width w.
func umulOverflows(x, y uint64, w uint) bool {
	hi, lo := bits.Mul64(x, y)
	return hi != 0 || ir.TruncBits(lo, w) != lo
}

// chooseBits draws an arbitrary w-bit value from the oracle. Widths
// above 32 are drawn as two halves so bounds stay within uint64.
func chooseBits(o Oracle, w uint) uint64 {
	if w <= 32 {
		return o.Choose(uint64(1) << w)
	}
	lo := o.Choose(1 << 32)
	hi := o.Choose(uint64(1) << (w - 32))
	return hi<<32 | lo
}

// ResolveLane materializes an undef lane into an arbitrary concrete
// value via the oracle ("each use of undef can yield a different
// result" — the resolution happens once per use). Poison and concrete
// lanes pass through.
func ResolveLane(s Scalar, w uint, o Oracle) Scalar {
	if s.Kind == UndefVal {
		return C(chooseBits(o, w))
	}
	return s
}

// ResolveUndef materializes every undef lane of v.
func ResolveUndef(v Value, o Oracle) Value {
	w := v.Ty.ElemType().Bits
	out := Value{Ty: v.Ty, Lanes: make([]Scalar, len(v.Lanes))}
	for i, l := range v.Lanes {
		out.Lanes[i] = ResolveLane(l, w, o)
	}
	return out
}

// FreezeLane implements the freeze rule of Figure 5 on one lane: poison
// (or legacy undef) becomes an arbitrary concrete value; everything
// else is the identity.
func FreezeLane(s Scalar, w uint, o Oracle) Scalar {
	if s.Kind != Concrete {
		return C(chooseBits(o, w))
	}
	return s
}

// EvalBinopConcrete evaluates a binop on two concrete lane values of
// width w. It returns the result lane (which may be poison, from nsw /
// nuw / exact, or over-shift under Freeze semantics; over-shift is
// undef under Legacy semantics per §2.3) and a non-empty ub string for
// immediate UB (division by zero, signed division overflow).
func EvalBinopConcrete(op ir.Op, attrs ir.Attrs, w uint, x, y uint64, mode Mode) (Scalar, string) {
	trunc := func(v uint64) Scalar { return C(ir.TruncBits(v, w)) }
	sx, sy := ir.SignExtBits(x, w), ir.SignExtBits(y, w)
	minSigned := int64(-1) << (w - 1)

	switch op {
	case ir.OpAdd:
		r := x + y
		if attrs&ir.NUW != 0 && ir.TruncBits(r, w) < x {
			return PoisonScalar, ""
		}
		if attrs&ir.NSW != 0 && saddOverflows(sx, sy, w) {
			return PoisonScalar, ""
		}
		return trunc(r), ""
	case ir.OpSub:
		r := x - y
		if attrs&ir.NUW != 0 && x < y {
			return PoisonScalar, ""
		}
		if attrs&ir.NSW != 0 && ssubOverflows(sx, sy, w) {
			return PoisonScalar, ""
		}
		return trunc(r), ""
	case ir.OpMul:
		r := x * y
		if attrs&ir.NUW != 0 && umulOverflows(x, y, w) {
			return PoisonScalar, ""
		}
		if attrs&ir.NSW != 0 && smulOverflows(sx, sy, w) {
			return PoisonScalar, ""
		}
		return trunc(r), ""
	case ir.OpUDiv:
		if y == 0 {
			return Scalar{}, "udiv by zero"
		}
		if attrs&ir.Exact != 0 && x%y != 0 {
			return PoisonScalar, ""
		}
		return trunc(x / y), ""
	case ir.OpSDiv:
		if y == 0 {
			return Scalar{}, "sdiv by zero"
		}
		if sx == minSigned && sy == -1 {
			return Scalar{}, "sdiv overflow"
		}
		q := sx / sy
		if attrs&ir.Exact != 0 && sx%sy != 0 {
			return PoisonScalar, ""
		}
		return trunc(uint64(q)), ""
	case ir.OpURem:
		if y == 0 {
			return Scalar{}, "urem by zero"
		}
		return trunc(x % y), ""
	case ir.OpSRem:
		if y == 0 {
			return Scalar{}, "srem by zero"
		}
		if sx == minSigned && sy == -1 {
			return Scalar{}, "srem overflow"
		}
		return trunc(uint64(sx % sy)), ""
	case ir.OpShl:
		if y >= uint64(w) {
			if mode == Legacy {
				return UndefScalar, ""
			}
			return PoisonScalar, ""
		}
		r := ir.TruncBits(x<<y, w)
		if attrs&ir.NUW != 0 && r>>y != x {
			return PoisonScalar, ""
		}
		if attrs&ir.NSW != 0 && ir.SignExtBits(r, w)>>y != sx {
			return PoisonScalar, ""
		}
		return C(r), ""
	case ir.OpLShr:
		if y >= uint64(w) {
			if mode == Legacy {
				return UndefScalar, ""
			}
			return PoisonScalar, ""
		}
		if attrs&ir.Exact != 0 && ir.TruncBits(x>>y<<y, w) != x {
			return PoisonScalar, ""
		}
		return trunc(x >> y), ""
	case ir.OpAShr:
		if y >= uint64(w) {
			if mode == Legacy {
				return UndefScalar, ""
			}
			return PoisonScalar, ""
		}
		if attrs&ir.Exact != 0 && ir.TruncBits(x>>y<<y, w) != x {
			return PoisonScalar, ""
		}
		return trunc(uint64(sx >> y)), ""
	case ir.OpAnd:
		return trunc(x & y), ""
	case ir.OpOr:
		return trunc(x | y), ""
	case ir.OpXor:
		return trunc(x ^ y), ""
	}
	panic(fmt.Sprintf("core: EvalBinopConcrete of %s", op))
}

// EvalBinopLane evaluates a binop on two lanes, handling poison: for
// division and remainder a poison divisor is immediate UB (the divisor
// could be zero), and so is a zero divisor whatever the dividend —
// division by zero is UB before a poison dividend can make the result
// poison; otherwise any poison operand yields poison. Undef operands
// must already be resolved by the caller.
func EvalBinopLane(op ir.Op, attrs ir.Attrs, w uint, x, y Scalar, mode Mode) (Scalar, string) {
	if x.Kind != PoisonVal && y.Kind != PoisonVal {
		return EvalBinopConcrete(op, attrs, w, x.Bits, y.Bits, mode)
	}
	if op.IsDivRem() {
		if y.Kind == PoisonVal {
			return Scalar{}, op.String() + " by poison"
		}
		if y.Kind == Concrete && ir.TruncBits(y.Bits, w) == 0 {
			return Scalar{}, op.String() + " by zero"
		}
	}
	return PoisonScalar, ""
}

// EvalICmpConcrete compares two concrete lane values of width w.
func EvalICmpConcrete(p ir.Pred, w uint, x, y uint64) bool {
	sx, sy := ir.SignExtBits(x, w), ir.SignExtBits(y, w)
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredUGT:
		return x > y
	case ir.PredUGE:
		return x >= y
	case ir.PredULT:
		return x < y
	case ir.PredULE:
		return x <= y
	case ir.PredSGT:
		return sx > sy
	case ir.PredSGE:
		return sx >= sy
	case ir.PredSLT:
		return sx < sy
	case ir.PredSLE:
		return sx <= sy
	}
	panic("core: bad predicate")
}

// EvalICmpLane compares two lanes; poison in, poison out.
func EvalICmpLane(p ir.Pred, w uint, x, y Scalar) Scalar {
	if x.Kind == PoisonVal || y.Kind == PoisonVal {
		return PoisonScalar
	}
	if EvalICmpConcrete(p, w, x.Bits, y.Bits) {
		return C(1)
	}
	return C(0)
}

// EvalCastLane evaluates zext/sext/trunc on one lane; poison in, poison
// out. fromW and toW are the lane widths.
func EvalCastLane(op ir.Op, fromW, toW uint, x Scalar) Scalar {
	if x.Kind == PoisonVal {
		return PoisonScalar
	}
	switch op {
	case ir.OpZExt:
		return C(ir.TruncBits(x.Bits, fromW))
	case ir.OpSExt:
		return C(ir.TruncBits(uint64(ir.SignExtBits(x.Bits, fromW)), toW))
	case ir.OpTrunc:
		return C(ir.TruncBits(x.Bits, toW))
	}
	panic("core: EvalCastLane of " + op.String())
}

// EvalGEP computes base + sext(idx)*elemSize in the 32-bit address
// space. With the inbounds attribute (ir.NSW), a computation whose
// mathematical value leaves [0, 2^32) is poison (§2.4: "pointer
// arithmetic overflow is undefined"); otherwise it wraps.
func EvalGEP(attrs ir.Attrs, base Scalar, idx Scalar, idxW uint, elemSize uint32) Scalar {
	if base.Kind == PoisonVal || idx.Kind == PoisonVal {
		return PoisonScalar
	}
	off := ir.SignExtBits(idx.Bits, idxW)
	exact := int64(int64(uint32(base.Bits))) + off*int64(elemSize)
	if attrs&ir.NSW != 0 && (exact < 0 || exact > 0xffffffff) {
		return PoisonScalar
	}
	return C(uint64(uint32(exact)))
}
