package heap

import (
	"errors"
	"fmt"
	"sort"
)

// ObjKind discriminates what a heap slot holds.
type ObjKind uint8

// Object kinds.
const (
	ObjInvalid ObjKind = iota
	ObjRecord          // instance of a class: fixed field slots
	ObjIntArr
	ObjFloatArr
	ObjRefArr
	ObjString // immutable byte string
	ObjThread // handle to a VM thread; Class holds the virtual thread id
)

func (k ObjKind) String() string {
	switch k {
	case ObjRecord:
		return "record"
	case ObjIntArr:
		return "int[]"
	case ObjFloatArr:
		return "float[]"
	case ObjRefArr:
		return "ref[]"
	case ObjString:
		return "string"
	case ObjThread:
		return "thread"
	default:
		return "invalid"
	}
}

// RefStrength classifies a reference root registered with the heap. Soft and
// weak references live in reference objects; in fault-tolerant mode the VM
// treats soft references as strong (the paper's shortcut, §4.3) so that
// cache hits cannot diverge between replicas.
type RefStrength uint8

// Reference strengths.
const (
	Strong RefStrength = iota + 1
	Soft
	Weak
)

// Errors returned by heap accessors.
var (
	ErrNullRef       = errors.New("null reference")
	ErrBadRef        = errors.New("dangling or invalid reference")
	ErrIndexOOB      = errors.New("array index out of bounds")
	ErrKindMismatch  = errors.New("object kind mismatch")
	ErrFieldOOB      = errors.New("field index out of bounds")
	ErrNegativeSize  = errors.New("negative array size")
	ErrHeapExhausted = errors.New("heap exhausted")
)

// Object is a heap cell. Exactly one of the payload slices is used, selected
// by Kind. Class is the class index for records (or the thread id for
// ObjThread); Mark is GC state; Finalize marks records whose class declares a
// finalizer that has not run yet. Mon is the object's monitor as the owning
// VM's monitor-table index plus one (0: no monitor yet) — the VM keeps it,
// the heap only carries it; it fills padding, so an Object stays 136 bytes.
type Object struct {
	Kind     ObjKind
	Class    int32
	Fields   []Value   // ObjRecord
	Ints     []int64   // ObjIntArr
	Floats   []float64 // ObjFloatArr
	Refs     []Ref     // ObjRefArr
	Str      []byte    // ObjString
	Mark     bool
	Finalize bool
	Mon      int32
}

// Stats carries allocation and GC counters for the experiment harness.
type Stats struct {
	Allocs     uint64
	Frees      uint64
	GCs        uint64
	Finalized  uint64
	LiveAtLast uint64
}

// Heap is an FTVM object heap. It is not safe for concurrent use: the whole
// VM (all green threads) runs on a single goroutine.
type Heap struct {
	slots []*Object // slot 0 reserved for null
	free  []Ref     // recycled slots, popped in LIFO order

	// softRefs maps reference-holder object -> referent; registered by the
	// VM's soft-reference native. They are traced as strong: whether a cache
	// hit survives a collection must not depend on a replica's memory
	// pressure (§4.3).
	softRefs map[Ref]Ref
	weakRefs map[Ref]Ref

	// finalizeQueue holds records collected with Finalize set, in
	// deterministic (ascending ref) order; the VM drains it.
	finalizeQueue []Ref

	// gcThreshold triggers GC when live+pending allocations exceed it;
	// doubled after each collection that stays full. 0 disables auto-GC.
	gcThreshold int

	maxSlots int
	stats    Stats
}

// Option configures a Heap.
type Option func(*Heap)

// WithGCThreshold sets the allocation count that triggers an automatic
// collection (0 disables automatic GC).
func WithGCThreshold(n int) Option { return func(h *Heap) { h.gcThreshold = n } }

// WithMaxSlots bounds the number of live objects (0 means unbounded).
func WithMaxSlots(n int) Option { return func(h *Heap) { h.maxSlots = n } }

// New returns an empty heap.
func New(opts ...Option) *Heap {
	h := &Heap{
		slots:    make([]*Object, 1, 1024), // slot 0 = null
		softRefs: make(map[Ref]Ref),
		weakRefs: make(map[Ref]Ref),
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Size returns the number of live objects.
func (h *Heap) Size() int {
	return len(h.slots) - 1 - len(h.free)
}

// Stats returns a copy of the heap counters.
func (h *Heap) Stats() Stats { return h.stats }

// NeedsGC reports whether the automatic-GC threshold has been crossed.
func (h *Heap) NeedsGC() bool {
	return h.gcThreshold > 0 && h.Size() >= h.gcThreshold
}

func (h *Heap) alloc(o *Object) (Ref, error) {
	if h.maxSlots > 0 && h.Size() >= h.maxSlots {
		return NullRef, ErrHeapExhausted
	}
	h.stats.Allocs++
	if n := len(h.free); n > 0 {
		r := h.free[n-1]
		h.free = h.free[:n-1]
		h.slots[r] = o
		return r, nil
	}
	h.slots = append(h.slots, o)
	return Ref(len(h.slots) - 1), nil
}

// AllocRecord allocates a class instance with nFields null/zero fields.
func (h *Heap) AllocRecord(class int32, nFields int, finalize bool) (Ref, error) {
	fields := make([]Value, nFields)
	for i := range fields {
		fields[i] = Null()
	}
	return h.alloc(&Object{Kind: ObjRecord, Class: class, Fields: fields, Finalize: finalize})
}

// AllocIntArr allocates an int array of length n.
func (h *Heap) AllocIntArr(n int) (Ref, error) {
	if n < 0 {
		return NullRef, ErrNegativeSize
	}
	return h.alloc(&Object{Kind: ObjIntArr, Ints: make([]int64, n)})
}

// AllocFloatArr allocates a float array of length n.
func (h *Heap) AllocFloatArr(n int) (Ref, error) {
	if n < 0 {
		return NullRef, ErrNegativeSize
	}
	return h.alloc(&Object{Kind: ObjFloatArr, Floats: make([]float64, n)})
}

// AllocRefArr allocates a reference array of length n (all null).
func (h *Heap) AllocRefArr(n int) (Ref, error) {
	if n < 0 {
		return NullRef, ErrNegativeSize
	}
	return h.alloc(&Object{Kind: ObjRefArr, Refs: make([]Ref, n)})
}

// AllocString allocates an immutable string object holding s.
func (h *Heap) AllocString(s string) (Ref, error) {
	return h.alloc(&Object{Kind: ObjString, Str: []byte(s)})
}

// AllocThread allocates a thread-handle object for VM thread slot id.
func (h *Heap) AllocThread(id int32) (Ref, error) {
	return h.alloc(&Object{Kind: ObjThread, Class: id})
}

// Get resolves r, failing on null or dangling references.
func (h *Heap) Get(r Ref) (*Object, error) {
	if r == NullRef {
		return nil, ErrNullRef
	}
	if int(r) >= len(h.slots) || h.slots[r] == nil {
		return nil, fmt.Errorf("%w: @%d", ErrBadRef, r)
	}
	return h.slots[r], nil
}

// GetKind resolves r and checks its kind.
func (h *Heap) GetKind(r Ref, k ObjKind) (*Object, error) {
	o, err := h.Get(r)
	if err != nil {
		return nil, err
	}
	if o.Kind != k {
		return nil, fmt.Errorf("%w: have %s, want %s", ErrKindMismatch, o.Kind, k)
	}
	return o, nil
}

// StringAt returns the Go string behind a string object.
func (h *Heap) StringAt(r Ref) (string, error) {
	o, err := h.GetKind(r, ObjString)
	if err != nil {
		return "", err
	}
	return string(o.Str), nil
}

// GetField reads field i of record r.
func (h *Heap) GetField(r Ref, i int) (Value, error) {
	o, err := h.GetKind(r, ObjRecord)
	if err != nil {
		return Value{}, err
	}
	if i < 0 || i >= len(o.Fields) {
		return Value{}, fmt.Errorf("%w: field %d of %d", ErrFieldOOB, i, len(o.Fields))
	}
	return o.Fields[i], nil
}

// SetField writes field i of record r.
func (h *Heap) SetField(r Ref, i int, v Value) error {
	o, err := h.GetKind(r, ObjRecord)
	if err != nil {
		return err
	}
	if i < 0 || i >= len(o.Fields) {
		return fmt.Errorf("%w: field %d of %d", ErrFieldOOB, i, len(o.Fields))
	}
	o.Fields[i] = v
	return nil
}

// ArrLen returns the length of any array object.
func (h *Heap) ArrLen(r Ref) (int, error) {
	o, err := h.Get(r)
	if err != nil {
		return 0, err
	}
	switch o.Kind {
	case ObjIntArr:
		return len(o.Ints), nil
	case ObjFloatArr:
		return len(o.Floats), nil
	case ObjRefArr:
		return len(o.Refs), nil
	case ObjString:
		return len(o.Str), nil
	default:
		return 0, fmt.Errorf("%w: %s is not an array", ErrKindMismatch, o.Kind)
	}
}

// ArrGet reads element i of array r.
func (h *Heap) ArrGet(r Ref, i int) (Value, error) {
	o, err := h.Get(r)
	if err != nil {
		return Value{}, err
	}
	switch o.Kind {
	case ObjIntArr:
		if i < 0 || i >= len(o.Ints) {
			return Value{}, fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Ints))
		}
		return IntVal(o.Ints[i]), nil
	case ObjFloatArr:
		if i < 0 || i >= len(o.Floats) {
			return Value{}, fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Floats))
		}
		return FloatVal(o.Floats[i]), nil
	case ObjRefArr:
		if i < 0 || i >= len(o.Refs) {
			return Value{}, fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Refs))
		}
		return RefVal(o.Refs[i]), nil
	case ObjString:
		if i < 0 || i >= len(o.Str) {
			return Value{}, fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Str))
		}
		return IntVal(int64(o.Str[i])), nil
	default:
		return Value{}, fmt.Errorf("%w: %s is not an array", ErrKindMismatch, o.Kind)
	}
}

// ArrSet writes element i of array r, coercing v to the element type.
func (h *Heap) ArrSet(r Ref, i int, v Value) error {
	o, err := h.Get(r)
	if err != nil {
		return err
	}
	switch o.Kind {
	case ObjIntArr:
		if i < 0 || i >= len(o.Ints) {
			return fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Ints))
		}
		if v.Kind != KindInt {
			return fmt.Errorf("%w: storing %s into int[]", ErrKindMismatch, v.Kind)
		}
		o.Ints[i] = v.I
	case ObjFloatArr:
		if i < 0 || i >= len(o.Floats) {
			return fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Floats))
		}
		if v.Kind != KindFloat {
			return fmt.Errorf("%w: storing %s into float[]", ErrKindMismatch, v.Kind)
		}
		o.Floats[i] = v.F()
	case ObjRefArr:
		if i < 0 || i >= len(o.Refs) {
			return fmt.Errorf("%w: %d of %d", ErrIndexOOB, i, len(o.Refs))
		}
		if v.Kind != KindRef {
			return fmt.Errorf("%w: storing %s into ref[]", ErrKindMismatch, v.Kind)
		}
		o.Refs[i] = v.R()
	default:
		return fmt.Errorf("%w: %s is not a writable array", ErrKindMismatch, o.Kind)
	}
	return nil
}

// RegisterSoftRef records that holder softly references referent.
func (h *Heap) RegisterSoftRef(holder, referent Ref) { h.softRefs[holder] = referent }

// RegisterWeakRef records that holder weakly references referent.
func (h *Heap) RegisterWeakRef(holder, referent Ref) { h.weakRefs[holder] = referent }

// SoftReferent returns the (possibly cleared) referent of a soft reference.
func (h *Heap) SoftReferent(holder Ref) (Ref, bool) {
	r, ok := h.softRefs[holder]
	return r, ok
}

// WeakReferent returns the (possibly cleared) referent of a weak reference.
func (h *Heap) WeakReferent(holder Ref) (Ref, bool) {
	r, ok := h.weakRefs[holder]
	return r, ok
}

// GC runs a mark-sweep collection. roots must invoke the callback for every
// strong root reference (thread stacks, statics, monitor-held objects).
// Records whose Finalize flag is set are not freed on their first collection:
// they are queued for finalization (deterministically, in ascending ref
// order) and freed on a later cycle, mirroring Java's finalizer contract.
// It returns the number of objects freed.
func (h *Heap) GC(roots func(mark func(Ref))) int {
	h.stats.GCs++
	var stack []Ref
	mark := func(r Ref) {
		if r == NullRef || int(r) >= len(h.slots) {
			return
		}
		o := h.slots[r]
		if o == nil || o.Mark {
			return
		}
		o.Mark = true
		stack = append(stack, r)
	}
	roots(mark)
	for holder, referent := range h.softRefs {
		if h.isMarkedOrMarkable(holder) {
			mark(referent)
		}
	}
	// Trace.
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o := h.slots[r]
		switch o.Kind {
		case ObjRecord:
			for _, f := range o.Fields {
				if f.Kind == KindRef {
					mark(f.R())
				}
			}
		case ObjRefArr:
			for _, rr := range o.Refs {
				mark(rr)
			}
		}
		if ref, ok := h.softRefs[r]; ok {
			mark(ref)
		}
	}
	// Unreached-but-finalizable records survive one cycle via the queue.
	var pendingFinal []Ref
	for i := 1; i < len(h.slots); i++ {
		o := h.slots[i]
		if o == nil || o.Mark {
			continue
		}
		if o.Kind == ObjRecord && o.Finalize {
			pendingFinal = append(pendingFinal, Ref(i))
		}
	}
	sort.Slice(pendingFinal, func(a, b int) bool { return pendingFinal[a] < pendingFinal[b] })
	for _, r := range pendingFinal {
		o := h.slots[r]
		o.Finalize = false
		h.finalizeQueue = append(h.finalizeQueue, r)
		h.stats.Finalized++
		// Keep the object (and everything it references) alive until the
		// finalizer has run: re-mark transitively.
		o.Mark = true
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			rr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			oo := h.slots[rr]
			switch oo.Kind {
			case ObjRecord:
				for _, f := range oo.Fields {
					if f.Kind == KindRef {
						mark(f.R())
					}
				}
			case ObjRefArr:
				for _, r2 := range oo.Refs {
					mark(r2)
				}
			}
		}
	}
	// Drop dead soft reference entries; clear dead weak referents.
	for holder := range h.softRefs {
		if !h.isLiveMarked(holder) {
			delete(h.softRefs, holder)
		}
	}
	for holder, referent := range h.weakRefs {
		if !h.isLiveMarked(holder) {
			delete(h.weakRefs, holder)
			continue
		}
		if !h.isLiveMarked(referent) {
			h.weakRefs[holder] = NullRef
		}
	}
	// Sweep.
	freed := 0
	for i := 1; i < len(h.slots); i++ {
		o := h.slots[i]
		if o == nil {
			continue
		}
		if o.Mark {
			o.Mark = false
			continue
		}
		h.slots[i] = nil
		h.free = append(h.free, Ref(i))
		freed++
	}
	h.stats.Frees += uint64(freed)
	h.stats.LiveAtLast = uint64(h.Size())
	if h.gcThreshold > 0 && h.Size() >= h.gcThreshold {
		h.gcThreshold *= 2
	}
	return freed
}

func (h *Heap) isMarkedOrMarkable(r Ref) bool {
	return r != NullRef && int(r) < len(h.slots) && h.slots[r] != nil && h.slots[r].Mark
}

func (h *Heap) isLiveMarked(r Ref) bool {
	return r != NullRef && int(r) < len(h.slots) && h.slots[r] != nil && h.slots[r].Mark
}

// DrainFinalizeQueue returns and clears the queue of records awaiting
// finalization, in the deterministic order they were enqueued.
func (h *Heap) DrainFinalizeQueue() []Ref {
	q := h.finalizeQueue
	h.finalizeQueue = nil
	return q
}
