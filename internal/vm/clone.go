package vm

import "repro/internal/heap"

// CloneSuspended deep-copies a VM that is paused between scheduler
// iterations (no thread mid-slice), producing an independent machine that
// will execute identically from the pause point when resumed. It is the
// substrate of the debugger's checkpoint cache: replay to position k once,
// snapshot, and every later visit to k..k+N resumes from the snapshot
// instead of replaying from zero.
//
// Shared (immutable after construction): the program, the resolved code, the
// closure compilation of both streams (a clone taken inside an exact-replay
// tail goes on stepping), the interned-string table, the native registry, and
// the static method indexes. Deep-copied: the heap
// (Ref numbering preserved, so the shared interned table stays valid), the
// environment and process, statics, threads (frames, locals, stacks,
// progress counters), and monitors (owner/queue/waitSet remapped to the
// cloned threads). The clone gets the supplied coordinator — the caller
// clones its replay coordinator alongside — and an empty handler-state
// table the caller refills from its cloned handler set.
//
// The clone is marked ran: it cannot be started with Run. Resume it with
// ResumeSuspended, which re-enters the scheduler loop exactly where the
// original stood (the loop recomputes runnable from thread states, and
// coordinator Poll is idempotent, so re-entering the iteration is
// equivalent to continuing it).
func (vm *VM) CloneSuspended(coord Coordinator) *VM {
	environ := vm.environ.Clone()
	c := &VM{
		prog:    vm.prog,
		hp:      vm.hp.Clone(),
		environ: environ,
		proc:    vm.proc.CloneInto(environ),
		natives: vm.natives,
		coord:   coord,

		statics:  append([]heap.Value(nil), vm.statics...),
		monitors: make([]*Monitor, len(vm.monitors)),

		joinIdx:   vm.joinIdx,
		finishIdx: vm.finishIdx,

		handlerState: make(map[string]any),

		rcode:    vm.rcode,
		interned: vm.interned,

		halted:        vm.halted,
		ran:           true,
		trackProgress: vm.trackProgress,
		runErr:        nil,
		instrCap:      vm.instrCap,
		stats:         vm.stats,

		dispatch: vm.dispatch,
		tcode:    vm.tcode,
		pairs:    vm.pairs,
	}
	// Threads first (monitor remapping needs them); blockedOn is patched
	// after monitors exist.
	c.threads = make([]*Thread, len(vm.threads))
	for i, t := range vm.threads {
		nt := &Thread{
			Slot:           t.Slot,
			VTID:           t.VTID,
			Ref:            t.Ref,
			childCount:     t.childCount,
			state:          t.state,
			reacquiring:    t.reacquiring,
			savedEntries:   t.savedEntries,
			waitLASN:       t.waitLASN,
			finishing:      t.finishing,
			logicallyDead:  t.logicallyDead,
			finalizerDepth: t.finalizerDepth,
			yielded:        t.yielded,
			Progress:       t.Progress,
			BrCnt:          t.BrCnt,
			MonCnt:         t.MonCnt,
			TASN:           t.TASN,
			NatSeq:         t.NatSeq,
			OutSeq:         t.OutSeq,
		}
		nt.frames = make([]Frame, len(t.frames))
		for j := range t.frames {
			f := &t.frames[j]
			nt.frames[j] = Frame{
				Method:    f.Method,
				PC:        f.PC,
				Locals:    append([]heap.Value(nil), f.Locals...),
				Stack:     append([]heap.Value(nil), f.Stack...),
				finalizer: f.finalizer,
			}
		}
		c.threads[i] = nt
	}
	remap := func(t *Thread) *Thread {
		if t == nil {
			return nil
		}
		return c.threads[t.Slot]
	}
	// The table is copied by index: the cloned heap's headers hold the same
	// indexes.
	for i, m := range vm.monitors {
		nm := &Monitor{
			Ref:     m.Ref,
			LID:     m.LID,
			LASN:    m.LASN,
			owner:   remap(m.owner),
			entries: m.entries,
		}
		for _, q := range m.queue {
			nm.queue = append(nm.queue, remap(q))
		}
		for _, w := range m.waitSet {
			nm.waitSet = append(nm.waitSet, remap(w))
		}
		c.monitors[i] = nm
	}
	for i, t := range vm.threads {
		if t.blockedOn == nil {
			continue
		}
		if o, err := c.hp.Get(t.blockedOn.Ref); err == nil && o.Mon > 0 {
			c.threads[i].blockedOn = c.monitors[o.Mon-1]
		}
	}
	c.cur = remap(vm.cur)
	return c
}

// ResumeSuspended continues a machine produced by CloneSuspended: it runs
// the scheduler loop from the suspension point to completion (or until the
// coordinator aborts it) and fires OnHalt, exactly as the tail of Run does.
func (vm *VM) ResumeSuspended() error {
	vm.runErr = vm.loop()
	if cerr := vm.coord.OnHalt(vm, vm.runErr); cerr != nil && vm.runErr == nil {
		vm.runErr = cerr
	}
	return vm.runErr
}
