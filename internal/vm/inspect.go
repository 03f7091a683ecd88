package vm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/heap"
)

// Inspection: a deterministic, human-readable rendering of the machine
// state — threads with their frame stacks, monitors with their owners and
// queues, statics, heap occupancy, and the console written so far. The
// debugger prints it at any replay position and bisects divergences on its
// checksum, so the rendering must be a pure function of VM state with a
// fixed iteration order everywhere.

// InspectReport is the rendered state plus its checksum.
type InspectReport struct {
	// Text is the full deterministic rendering.
	Text string
	// Checksum is FNV-1a over Text: a position fingerprint. Two replays of
	// the same log are at identical states iff their checksums match.
	Checksum uint64
	// Branches is the global position: the sum of every thread's branch
	// count (dead threads included; branch counts are never reset).
	Branches uint64
}

// Inspect renders the current state. The VM must be paused (between
// scheduler iterations) or halted.
func (vm *VM) Inspect() InspectReport {
	var b strings.Builder

	var global uint64
	for _, t := range vm.threads {
		global += t.BrCnt
	}
	fmt.Fprintf(&b, "position %d branches, %d threads, halted=%v\n", global, len(vm.threads), vm.halted)

	for _, t := range vm.threads {
		fmt.Fprintf(&b, "thread %s slot=%d state=%s br=%d mon=%d tasn=%d nat=%d out=%d",
			t.VTID, t.Slot, t.state, t.BrCnt, t.MonCnt, t.TASN, t.NatSeq, t.OutSeq)
		if t.blockedOn != nil {
			fmt.Fprintf(&b, " blockedOn=lid:%d", t.blockedOn.LID)
		}
		b.WriteByte('\n')
		for i := len(t.frames) - 1; i >= 0; i-- {
			f := &t.frames[i]
			fmt.Fprintf(&b, "  frame %d %s pc=%d", len(t.frames)-1-i, vm.methodName(f.Method), f.PC)
			if len(f.Locals) > 0 {
				b.WriteString(" locals=[")
				writeValues(&b, vm.hp, f.Locals)
				b.WriteByte(']')
			}
			if len(f.Stack) > 0 {
				b.WriteString(" stack=[")
				writeValues(&b, vm.hp, f.Stack)
				b.WriteByte(']')
			}
			b.WriteByte('\n')
		}
	}

	// Monitors in ascending heap-ref order; only interesting ones (assigned
	// an id, held, contended or waited on) — an unlocked never-used monitor
	// is not state.
	mons := make([]*Monitor, 0, len(vm.monitors))
	for _, m := range vm.monitors {
		if m.LID >= 0 || m.owner != nil || len(m.queue) > 0 || len(m.waitSet) > 0 {
			mons = append(mons, m)
		}
	}
	sort.Slice(mons, func(i, j int) bool { return mons[i].Ref < mons[j].Ref })
	for _, m := range mons {
		fmt.Fprintf(&b, "monitor lid=%d lasn=%d", m.LID, m.LASN)
		if m.owner != nil {
			fmt.Fprintf(&b, " owner=%s entries=%d", m.owner.VTID, m.entries)
		}
		if len(m.queue) > 0 {
			b.WriteString(" queue=[")
			for i, t := range m.queue {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t.VTID)
			}
			b.WriteByte(']')
		}
		if len(m.waitSet) > 0 {
			b.WriteString(" waiters=[")
			for i, t := range m.waitSet {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t.VTID)
			}
			b.WriteByte(']')
		}
		b.WriteByte('\n')
	}

	if len(vm.statics) > 0 {
		b.WriteString("statics=[")
		writeValues(&b, vm.hp, vm.statics)
		b.WriteString("]\n")
	}

	hs := vm.hp.Stats()
	fmt.Fprintf(&b, "heap live=%d allocs=%d frees=%d gcs=%d\n", vm.hp.Size(), hs.Allocs, hs.Frees, hs.GCs)

	for _, line := range vm.environ.Console().Lines() {
		fmt.Fprintf(&b, "console %q\n", line)
	}

	text := b.String()
	return InspectReport{Text: text, Checksum: fnv1a(text), Branches: global}
}

// GlobalBranches returns the machine's global position: the sum of all
// thread branch counts.
func (vm *VM) GlobalBranches() uint64 {
	var g uint64
	for _, t := range vm.threads {
		g += t.BrCnt
	}
	return g
}

func (vm *VM) methodName(idx int32) string {
	if int(idx) < len(vm.prog.Methods) {
		return vm.prog.Methods[idx].Name
	}
	return fmt.Sprintf("m%d", idx)
}

// writeValues renders a value list. Heap references render as the referent's
// shape — not its ref number, which is allocation-order dependent and may
// legitimately differ between two executions being diffed (the paper's
// motivation for virtual lock ids). Strings render their contents; other
// objects render kind and payload sizes.
func writeValues(b *strings.Builder, hp *heap.Heap, vals []heap.Value) {
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		writeValue(b, hp, v)
	}
}

func writeValue(b *strings.Builder, hp *heap.Heap, v heap.Value) {
	switch v.Kind {
	case heap.KindInt:
		fmt.Fprintf(b, "%d", v.I)
	case heap.KindFloat:
		fmt.Fprintf(b, "%g", v.F())
	case heap.KindRef:
		if v.R() == heap.NullRef {
			b.WriteString("null")
			return
		}
		o, err := hp.Get(v.R())
		if err != nil {
			b.WriteString("ref?")
			return
		}
		switch o.Kind {
		case heap.ObjString:
			fmt.Fprintf(b, "%q", o.Str)
		case heap.ObjRecord:
			fmt.Fprintf(b, "rec/%d", len(o.Fields))
		case heap.ObjIntArr:
			fmt.Fprintf(b, "ints/%d", len(o.Ints))
		case heap.ObjFloatArr:
			fmt.Fprintf(b, "floats/%d", len(o.Floats))
		case heap.ObjRefArr:
			fmt.Fprintf(b, "refs/%d", len(o.Refs))
		default:
			fmt.Fprintf(b, "obj/%d", o.Kind)
		}
	default:
		b.WriteString("invalid")
	}
}

// fnv1a is the 64-bit FNV-1a hash (the parameters ProgressSnapshot.Chk
// folds with).
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
