package heap

// Clone returns a deep copy of the heap: every live object, the free list,
// the reference maps, the finalize queue, the GC configuration and the
// stats. Ref values keep their numbering, so references held outside the
// heap (thread frames, monitors, interned-string tables) remain valid
// against the clone — the property the debugger's checkpoint cache depends
// on, since a resumed clone must allocate, collect and recycle slots in
// exactly the same order as the original.
func (h *Heap) Clone() *Heap {
	c := &Heap{
		slots:       make([]*Object, len(h.slots)),
		softRefs:    make(map[Ref]Ref, len(h.softRefs)),
		weakRefs:    make(map[Ref]Ref, len(h.weakRefs)),
		gcThreshold: h.gcThreshold,
		maxSlots:    h.maxSlots,
		stats:       h.stats,
	}
	for i, o := range h.slots {
		if o == nil {
			continue
		}
		n := &Object{Kind: o.Kind, Class: o.Class, Mark: o.Mark, Finalize: o.Finalize}
		if o.Fields != nil {
			n.Fields = append([]Value(nil), o.Fields...)
		}
		if o.Ints != nil {
			n.Ints = append([]int64(nil), o.Ints...)
		}
		if o.Floats != nil {
			n.Floats = append([]float64(nil), o.Floats...)
		}
		if o.Refs != nil {
			n.Refs = append([]Ref(nil), o.Refs...)
		}
		if o.Str != nil {
			n.Str = append([]byte(nil), o.Str...)
		}
		c.slots[i] = n
	}
	if h.free != nil {
		c.free = append([]Ref(nil), h.free...)
	}
	if h.finalizeQueue != nil {
		c.finalizeQueue = append([]Ref(nil), h.finalizeQueue...)
	}
	for k, v := range h.softRefs {
		c.softRefs[k] = v
	}
	for k, v := range h.weakRefs {
		c.weakRefs[k] = v
	}
	return c
}
