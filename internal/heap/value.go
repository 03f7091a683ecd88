// Package heap implements the FTVM object heap: tagged runtime values,
// objects, arrays, strings, reference kinds (strong/soft/weak) and a
// mark-sweep garbage collector with a deterministic finalizer queue.
//
// Heap references are small integers handed out in allocation order. Because
// allocation order depends on thread interleaving, reference values are NOT
// stable across replicas of the same program — exactly the property that
// forces the paper's virtual lock-id (l_id) scheme in replicated execution.
package heap

import (
	"math"
	"strconv"
)

// Kind discriminates the runtime value variants held in stack slots, locals,
// fields and array elements.
type Kind uint8

// Value kinds. The zero Kind is invalid so that an uninitialised Value is
// distinguishable from a deliberate one.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindRef
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindRef:
		return "ref"
	default:
		return "invalid"
	}
}

// Ref is a heap reference. The zero Ref is the null reference.
type Ref uint32

// NullRef is the null heap reference.
const NullRef Ref = 0

// Value is a tagged runtime value: an integer, a float, or a heap reference,
// in two words. I is the one payload word: an int is stored as itself, a
// float as its IEEE-754 bits (so -0.0 and every NaN keep their bits), a ref
// zero-extended. Read a float or a ref through F or R; I is the int only when
// Kind is KindInt.
type Value struct {
	Kind Kind
	I    int64
}

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatVal returns a floating-point value.
func FloatVal(f float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(f))} }

// RefVal returns a reference value.
func RefVal(r Ref) Value { return Value{Kind: KindRef, I: int64(r)} }

// Null returns the null reference value.
func Null() Value { return Value{Kind: KindRef} }

// F returns the float payload of a KindFloat value.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// R returns the reference payload of a KindRef value.
func (v Value) R() Ref { return Ref(v.I) }

// BoolVal returns the integer encoding of b (1 or 0).
func BoolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// IsNull reports whether v is the null reference.
func (v Value) IsNull() bool { return v.Kind == KindRef && v.R() == NullRef }

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindRef:
		if v.R() == NullRef {
			return "null"
		}
		return "@" + strconv.FormatUint(uint64(v.R()), 10)
	default:
		return "<invalid>"
	}
}
