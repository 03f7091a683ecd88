package heap

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocAndAccess(t *testing.T) {
	h := New()
	rec, err := h.AllocRecord(3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetField(rec, 0, IntVal(7)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetField(rec, 1, FloatVal(2.5)); err != nil {
		t.Fatal(err)
	}
	v, err := h.GetField(rec, 0)
	if err != nil || v.I != 7 {
		t.Fatalf("field 0 = %v (%v)", v, err)
	}
	if _, err := h.GetField(rec, 5); !errors.Is(err, ErrFieldOOB) {
		t.Fatalf("want field OOB, got %v", err)
	}
	if _, err := h.Get(NullRef); !errors.Is(err, ErrNullRef) {
		t.Fatalf("want null error, got %v", err)
	}
	if _, err := h.Get(Ref(9999)); !errors.Is(err, ErrBadRef) {
		t.Fatalf("want bad ref, got %v", err)
	}
}

func TestArrays(t *testing.T) {
	h := New()
	ia, _ := h.AllocIntArr(4)
	fa, _ := h.AllocFloatArr(2)
	ra, _ := h.AllocRefArr(2)
	if err := h.ArrSet(ia, 2, IntVal(9)); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.ArrGet(ia, 2); v.I != 9 {
		t.Fatalf("ia[2] = %v", v)
	}
	if err := h.ArrSet(ia, 2, FloatVal(1)); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("want kind mismatch, got %v", err)
	}
	if _, err := h.ArrGet(fa, 5); !errors.Is(err, ErrIndexOOB) {
		t.Fatalf("want OOB, got %v", err)
	}
	if err := h.ArrSet(ra, 0, RefVal(ia)); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.ArrLen(ra); n != 2 {
		t.Fatalf("len = %d", n)
	}
	if _, err := h.AllocIntArr(-1); !errors.Is(err, ErrNegativeSize) {
		t.Fatalf("want negative size, got %v", err)
	}
}

func TestStrings(t *testing.T) {
	h := New()
	s, _ := h.AllocString("hello")
	got, err := h.StringAt(s)
	if err != nil || got != "hello" {
		t.Fatalf("string = %q (%v)", got, err)
	}
	if n, _ := h.ArrLen(s); n != 5 {
		t.Fatalf("len = %d", n)
	}
	if v, _ := h.ArrGet(s, 1); v.I != 'e' {
		t.Fatalf("s[1] = %v", v)
	}
}

func TestGCBasic(t *testing.T) {
	h := New()
	live, _ := h.AllocRecord(0, 1, false)
	child, _ := h.AllocIntArr(10)
	_ = h.SetField(live, 0, RefVal(child))
	for i := 0; i < 100; i++ {
		if _, err := h.AllocRecord(0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	freed := h.GC(func(mark func(Ref)) { mark(live) })
	if freed != 100 {
		t.Fatalf("freed %d, want 100", freed)
	}
	if _, err := h.Get(child); err != nil {
		t.Fatalf("reachable child collected: %v", err)
	}
	if h.Size() != 2 {
		t.Fatalf("size = %d, want 2", h.Size())
	}
}

func TestGCSlotReuse(t *testing.T) {
	h := New()
	r1, _ := h.AllocRecord(0, 0, false)
	h.GC(func(func(Ref)) {})
	r2, _ := h.AllocRecord(0, 0, false)
	if r1 != r2 {
		t.Fatalf("slot not recycled: %v then %v", r1, r2)
	}
}

func TestFinalizerQueueDeterministic(t *testing.T) {
	h := New()
	var refs []Ref
	for i := 0; i < 5; i++ {
		r, _ := h.AllocRecord(1, 0, true)
		refs = append(refs, r)
	}
	h.GC(func(func(Ref)) {})
	q := h.DrainFinalizeQueue()
	if len(q) != 5 {
		t.Fatalf("queue = %d, want 5", len(q))
	}
	for i := 1; i < len(q); i++ {
		if q[i] <= q[i-1] {
			t.Fatalf("queue not in ascending ref order: %v", q)
		}
	}
	// Finalizable objects survive the first collection...
	for _, r := range refs {
		if _, err := h.Get(r); err != nil {
			t.Fatalf("finalizable object collected early: %v", err)
		}
	}
	// ...and are freed on the next (finalizers have notionally run).
	h.GC(func(func(Ref)) {})
	for _, r := range refs {
		if _, err := h.Get(r); err == nil {
			t.Fatalf("object %v not freed after finalization", r)
		}
	}
}

func TestSoftRefsStrongInFTMode(t *testing.T) {
	h := New()
	holder, _ := h.AllocRecord(0, 0, false)
	obj, _ := h.AllocIntArr(3)
	h.RegisterSoftRef(holder, obj)
	h.GC(func(mark func(Ref)) { mark(holder) })
	if _, err := h.Get(obj); err != nil {
		t.Fatalf("soft referent collected in FT mode: %v", err)
	}
	if r, ok := h.SoftReferent(holder); !ok || r != obj {
		t.Fatalf("soft ref lost: %v %v", r, ok)
	}
}

func TestWeakRefsCleared(t *testing.T) {
	h := New()
	holder, _ := h.AllocRecord(0, 0, false)
	obj, _ := h.AllocIntArr(3)
	h.RegisterWeakRef(holder, obj)
	h.GC(func(mark func(Ref)) { mark(holder) })
	if r, ok := h.WeakReferent(holder); !ok || r != NullRef {
		t.Fatalf("weak ref should be cleared: %v %v", r, ok)
	}
}

func TestMaxSlots(t *testing.T) {
	h := New(WithMaxSlots(3))
	for i := 0; i < 3; i++ {
		if _, err := h.AllocIntArr(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.AllocIntArr(1); !errors.Is(err, ErrHeapExhausted) {
		t.Fatalf("want exhaustion, got %v", err)
	}
}

// Property: a chain of records is fully retained by GC from its head, and
// fully collected without it, for any chain length.
func TestGCChainProperty(t *testing.T) {
	prop := func(rawLen uint8) bool {
		n := int(rawLen%50) + 1
		h := New()
		refs := make([]Ref, n)
		for i := range refs {
			refs[i], _ = h.AllocRecord(0, 1, false)
		}
		for i := 0; i+1 < n; i++ {
			if err := h.SetField(refs[i], 0, RefVal(refs[i+1])); err != nil {
				return false
			}
		}
		h.GC(func(mark func(Ref)) { mark(refs[0]) })
		if h.Size() != n {
			return false
		}
		h.GC(func(func(Ref)) {})
		return h.Size() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: values round-trip through array storage for any int64/float64.
func TestArrayStoreProperty(t *testing.T) {
	h := New()
	ia, _ := h.AllocIntArr(1)
	fa, _ := h.AllocFloatArr(1)
	propInt := func(v int64) bool {
		if err := h.ArrSet(ia, 0, IntVal(v)); err != nil {
			return false
		}
		got, err := h.ArrGet(ia, 0)
		return err == nil && got.I == v
	}
	propFloat := func(v float64) bool {
		if err := h.ArrSet(fa, 0, FloatVal(v)); err != nil {
			return false
		}
		got, err := h.ArrGet(fa, 0)
		return err == nil && (got.F() == v || (v != v && got.F() != got.F())) // NaN-safe
	}
	if err := quick.Check(propInt, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(propFloat, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValueLayout pins the two-word value: every stack slot, local, static
// and record field is a Kind and one payload word, with no pointer in it.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Fatalf("heap.Value is %d bytes, want 16", n)
	}
}

// TestValueEqualProperty pins value equality, which is plain == on the two
// words: two ints are equal exactly when their payloads are, and equal
// payloads of different kinds are different values.
func TestValueEqualProperty(t *testing.T) {
	prop := func(a, b int64) bool {
		va, vb := IntVal(a), IntVal(b)
		return (va == vb) == (a == b) && va == IntVal(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if IntVal(1) == FloatVal(1) || IntVal(0) == Null() || FloatVal(0) == Null() {
		t.Fatal("cross-kind equality")
	}
}

// TestValueAccessors pins what each constructor stores in the one payload
// word and what the accessors read back: ints as themselves, floats bit for
// bit (-0.0, every NaN payload, ±Inf), refs zero-extended.
func TestValueAccessors(t *testing.T) {
	propInt := func(a int64) bool {
		v := IntVal(a)
		return v.Kind == KindInt && v.I == a
	}
	propFloat := func(f float64) bool {
		v := FloatVal(f)
		return v.Kind == KindFloat && math.Float64bits(v.F()) == math.Float64bits(f)
	}
	propRef := func(r uint32) bool {
		v := RefVal(Ref(r))
		return v.Kind == KindRef && v.R() == Ref(r) && v.I == int64(r) && v.IsNull() == (r == 0)
	}
	for _, prop := range []any{propInt, propFloat, propRef} {
		if err := quick.Check(prop, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)), 0x7ff8000000000001, 0xfff0000000000123,
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	} {
		if !propFloat(math.Float64frombits(bits)) {
			t.Errorf("float bits %#x not preserved", bits)
		}
	}
	if !Null().IsNull() || IntVal(0).IsNull() || RefVal(1).IsNull() {
		t.Fatal("IsNull broken")
	}
	if got := FloatVal(math.Copysign(0, -1)).String(); got != "-0" {
		t.Fatalf("-0.0 renders %q", got)
	}
}

func TestGCCollectsCycles(t *testing.T) {
	h := New()
	// Two records referencing each other, unreachable from any root.
	a, _ := h.AllocRecord(0, 1, false)
	b, _ := h.AllocRecord(0, 1, false)
	_ = h.SetField(a, 0, RefVal(b))
	_ = h.SetField(b, 0, RefVal(a))
	if freed := h.GC(func(func(Ref)) {}); freed != 2 {
		t.Fatalf("freed %d, want the whole cycle (2)", freed)
	}
	// A rooted cycle survives.
	c, _ := h.AllocRecord(0, 1, false)
	d, _ := h.AllocRecord(0, 1, false)
	_ = h.SetField(c, 0, RefVal(d))
	_ = h.SetField(d, 0, RefVal(c))
	if freed := h.GC(func(mark func(Ref)) { mark(c) }); freed != 0 {
		t.Fatalf("freed %d from a live cycle", freed)
	}
}

func TestGCRefArrayTracing(t *testing.T) {
	h := New()
	arr, _ := h.AllocRefArr(3)
	child, _ := h.AllocString("kept alive through the array")
	_ = h.ArrSet(arr, 1, RefVal(child))
	h.GC(func(mark func(Ref)) { mark(arr) })
	if _, err := h.StringAt(child); err != nil {
		t.Fatalf("array element collected: %v", err)
	}
}

func TestAutoGCThresholdDoubles(t *testing.T) {
	h := New(WithGCThreshold(10))
	var live []Ref
	for i := 0; i < 10; i++ {
		r, _ := h.AllocRecord(0, 0, false)
		live = append(live, r)
	}
	if !h.NeedsGC() {
		t.Fatal("threshold not reached")
	}
	h.GC(func(mark func(Ref)) {
		for _, r := range live {
			mark(r)
		}
	})
	// Everything stayed live, so the threshold must have doubled to avoid
	// thrashing.
	if h.NeedsGC() {
		t.Fatal("threshold should have grown after a full-live collection")
	}
}
