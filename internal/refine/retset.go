package refine

import (
	"math/bits"
	"sort"

	"tameir/internal/core"
	"tameir/internal/ir"
)

// RetSet is the set of concrete values a function returns over one
// behaviour sweep. It has two representations behind one API, chosen
// from the return type when the set is created:
//
//   - packed: a return domain of at most 64 values (an i1–i6 integer,
//     or an integer vector of at most 6 bits in total) is a uint64
//     mask indexed by the value's lanes packed side by side, lane 0 in
//     the low bits. Recording a return is one OR, with no string and
//     no map;
//   - keyed: every wider or pointer return is held as its
//     core.Value.Key() string in a map, allocated at the first member.
//
// Both render the same keys in the same (sorted) order, so String,
// Refines' counterexample reason and every digest built on Each are
// independent of the representation (TestRetSetMatchesKeyedReference).
type RetSet struct {
	dom  *retDomain      // non-nil: the packed representation over dom
	mask uint64          // packed members: bit i is dom's value i
	keys map[string]bool // keyed members, by Value.Key()
}

// retDomain is the value space of one packed return type: every value's
// key, and the order that sorts them.
type retDomain struct {
	ty       ir.Type
	laneBits uint
	keys     []string         // keys[i] is the Key() of packed value i
	order    []uint8          // packed indices in ascending key order
	index    map[string]uint8 // keys inverted, for key-addressed queries
}

// maxPackedBits is the widest return type a packed set covers: 2^6
// values fill the uint64 mask.
const maxPackedBits = 6

// The packed domains of every integer type and every integer vector
// type of at most maxPackedBits bits: scalars by width, vectors by
// element width and length.
var (
	packedScalars [maxPackedBits + 1]*retDomain
	packedVectors [maxPackedBits + 1][maxPackedBits + 1]*retDomain
)

func init() {
	for e := uint(1); e <= maxPackedBits; e++ {
		packedScalars[e] = newRetDomain(ir.Int(e))
		for n := uint(1); e*n <= maxPackedBits; n++ {
			packedVectors[e][n] = newRetDomain(ir.Vec(n, ir.Int(e)))
		}
	}
}

// packedDomain returns ty's packed domain, or nil when ty's values do
// not fit the mask.
func packedDomain(ty ir.Type) *retDomain {
	switch {
	case ty.Kind == ir.IntKind && ty.Bits <= maxPackedBits:
		return packedScalars[ty.Bits]
	case ty.Kind == ir.VecKind && ty.Elem == ir.IntKind && ty.Bits*ty.Len <= maxPackedBits:
		return packedVectors[ty.Bits][ty.Len]
	}
	return nil
}

func newRetDomain(ty ir.Type) *retDomain {
	d := &retDomain{ty: ty, laneBits: ty.ElemType().Bits, index: map[string]uint8{}}
	size := 1 << ty.Bitwidth()
	for i := 0; i < size; i++ {
		k := d.value(uint64(i)).Key()
		d.keys = append(d.keys, k)
		d.index[k] = uint8(i)
		d.order = append(d.order, uint8(i))
	}
	sort.Slice(d.order, func(a, b int) bool { return d.keys[d.order[a]] < d.keys[d.order[b]] })
	return d
}

// value unpacks index i into a concrete value of the domain's type.
func (d *retDomain) value(i uint64) core.Value {
	lanes := make([]core.Scalar, d.ty.NumElems())
	for l := range lanes {
		lanes[l] = core.C(ir.TruncBits(i>>(uint(l)*d.laneBits), d.laneBits))
	}
	return core.Value{Ty: d.ty, Lanes: lanes}
}

// pack returns the packed index of a concrete value of the domain's
// type.
func (d *retDomain) pack(v core.Value) uint {
	var i uint64
	for l, s := range v.Lanes {
		i |= s.Bits << (uint(l) * d.laneBits)
	}
	return uint(i)
}

// newRetSet returns an empty set for returns of type ty, packed when
// ty's domain fits the mask.
func newRetSet(ty ir.Type) RetSet {
	return RetSet{dom: packedDomain(ty)}
}

// add records the concrete value v. keyBuf is scratch for rendering
// a keyed member's key; add returns it (possibly grown) for reuse.
func (r *RetSet) add(v core.Value, keyBuf []byte) []byte {
	if r.dom != nil {
		r.mask |= 1 << r.dom.pack(v)
		return keyBuf
	}
	keyBuf = v.AppendKey(keyBuf[:0])
	if !r.keys[string(keyBuf)] {
		if r.keys == nil {
			r.keys = make(map[string]bool, 4)
		}
		r.keys[string(keyBuf)] = true
	}
	return keyBuf
}

// Len returns the number of members.
func (r RetSet) Len() int {
	if r.dom != nil {
		return bits.OnesCount64(r.mask)
	}
	return len(r.keys)
}

// Contains reports whether the set holds the value whose Key() is key.
func (r RetSet) Contains(key string) bool {
	if r.dom != nil {
		i, ok := r.dom.index[key]
		return ok && r.mask&(1<<i) != 0
	}
	return r.keys[key]
}

// Each calls fn with every member's key in ascending order. It
// allocates nothing on a packed set.
func (r RetSet) Each(fn func(key string)) {
	if r.dom != nil {
		if r.mask == 0 {
			return
		}
		for _, i := range r.dom.order {
			if r.mask&(1<<i) != 0 {
				fn(r.dom.keys[i])
			}
		}
		return
	}
	for _, k := range r.Keys() {
		fn(k)
	}
}

// Keys returns the members' keys in ascending order.
func (r RetSet) Keys() []string {
	if r.dom != nil {
		out := make([]string, 0, r.Len())
		r.Each(func(k string) { out = append(out, k) })
		return out
	}
	out := make([]string, 0, len(r.keys))
	for k := range r.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MissingFrom returns the smallest key in r that src lacks, and
// whether there is one.
func (r RetSet) MissingFrom(src RetSet) (string, bool) {
	if r.dom != nil && r.dom == src.dom {
		if diff := r.mask &^ src.mask; diff != 0 {
			for _, i := range r.dom.order {
				if diff&(1<<i) != 0 {
					return r.dom.keys[i], true
				}
			}
		}
		return "", false
	}
	// Different domains or keyed sets: one unsorted pass keeping the
	// smallest missing key, so a wide set is never sorted.
	missing, found := "", false
	note := func(k string) {
		if (!found || k < missing) && !src.Contains(k) {
			missing, found = k, true
		}
	}
	if r.dom != nil {
		for i := range r.dom.keys {
			if r.mask&(1<<i) != 0 {
				note(r.dom.keys[i])
			}
		}
	} else {
		for k := range r.keys {
			note(k)
		}
	}
	return missing, found
}
