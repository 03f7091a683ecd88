package replication

import (
	"repro/internal/sehandler"
	"repro/internal/vm"
	"repro/internal/wire"
)

// schedReplay is the backup-side coordinator for replicated thread
// scheduling (§4.2): the logged switch records form a chain — each record
// names the thread being descheduled (with its progress indicators) and the
// thread scheduled next. The backup dispatches exactly that chain, running
// each thread until its branch count reaches the recorded value, and
// cross-checks pc offset and mon_cnt at every switch. After the final record
// the backup must still schedule the thread the primary intended to run next
// (it may have interacted with the environment); once its logged native
// events are reproduced the VM continues under the replay's policy, the live
// one. It overrides PickNext, OnDescheduled and Poll; acquisitions are not
// gated (R4B) and lock ids are the base's counter.
type schedReplay struct {
	*nativeReplay
	idx    int
	expect string // vtid that should be running per the chain
	forced bool   // the final record's NextTID was dispatched post-drain
	// pendingSwitch suppresses one tail tee: consuming the final switch
	// record leaves idx == len(switches), but the VM's OnDescheduled call for
	// that very switch arrives *after* PickNext consumed it — the record is
	// already in the snapshot and must not be logged twice.
	pendingSwitch bool

	// Replayed counts consumed switch records.
	Replayed uint64
}

var _ vm.Coordinator = (*schedReplay)(nil)

func newSchedReplay(a *analysis, handlers *sehandler.Set, policy vm.SchedPolicy) *schedReplay {
	c := &schedReplay{nativeReplay: newNativeReplay(a, handlers), expect: "0"} // the chain starts at the main thread
	c.Policy = seededOr(policy, 0x7363686564)
	return c
}

// PickNext implements vm.Coordinator: walk the switch-record chain. A nil
// thread with no error means "no dispatch possible yet" (warm backup waiting
// for the next scheduling record).
func (c *schedReplay) PickNext(v *vm.VM, runnable []*vm.Thread, cur *vm.Thread) (*vm.Thread, vm.SliceTarget, error) {
	var none vm.SliceTarget
	for c.idx < len(c.a.switches) {
		head := c.a.switches[c.idx]
		if head.TID != c.expect {
			return nil, none, divergence("switch chain broken: record %d deschedules %s, chain expects %s",
				c.idx, head.TID, c.expect)
		}
		t := v.ThreadByVTID(c.expect)
		if t == nil {
			return nil, none, divergence("switch record %d names unknown thread %s", c.idx, c.expect)
		}
		atSwitch := t.BrCnt == head.BrCnt && atPosition(t, head) &&
			uint8(t.State()) == head.Reason
		switch {
		case t.BrCnt > head.BrCnt:
			return nil, none, divergence("thread %s overshot: br_cnt %d past recorded %d",
				t.VTID, t.BrCnt, head.BrCnt)
		case atSwitch:
			if err := c.verifySwitch(t, head); err != nil {
				return nil, none, err
			}
			c.idx++
			c.Replayed++
			c.expect = head.NextTID
			if c.tail != nil && c.idx == len(c.a.switches) && !c.a.open {
				c.pendingSwitch = true
			}
		default:
			if t.State() == vm.StateGated && c.a.open {
				// Waiting for a native record (warm backup): idle.
				return nil, none, nil
			}
			// Run (or keep running) the thread to the recorded switch point.
			if t.State() != vm.StateRunnable {
				return nil, none, divergence("thread %s is %s at br_cnt %d but the log runs it to %d",
					t.VTID, t.State(), t.BrCnt, head.BrCnt)
			}
			return t, vm.SliceTarget{
				Br: head.BrCnt, Exact: true, Method: head.MethodIdx, PC: head.PCOff,
				StopRunnable: vm.ThreadState(head.Reason) == vm.StateRunnable,
			}, nil
		}
	}
	if c.a.open {
		// Warm backup: caught up with the primary's scheduling log. The
		// expected thread may not run ahead of the primary's decisions;
		// idle until the next record (or closure) arrives.
		return nil, none, nil
	}
	// Log drained and closed. Schedule the thread the primary intended
	// next, once ("the backup must schedule t'"); then live policy.
	if !c.forced && c.Replayed > 0 {
		c.forced = true
		if t := v.ThreadByVTID(c.expect); t != nil && t.State() == vm.StateRunnable {
			return t, vm.BudgetTarget(t, c.Policy.Quantum()), nil
		}
	}
	return c.DefaultCoordinator.PickNext(v, runnable, cur)
}

// atPosition reports whether t sits exactly at the recorded switch position
// (a dead/frameless thread matches the -1/-1 sentinel).
func atPosition(t *vm.Thread, rec *wire.Switch) bool {
	f := t.Top()
	if f == nil {
		return rec.MethodIdx == -1 && rec.PCOff == -1
	}
	return f.Method == rec.MethodIdx && f.PC == rec.PCOff
}

func (c *schedReplay) verifySwitch(t *vm.Thread, rec *wire.Switch) error {
	br, methodIdx, pcOff, mon, lasn := snapshotProgress(t)
	if br != rec.BrCnt {
		return divergence("thread %s br_cnt %d != recorded %d", t.VTID, br, rec.BrCnt)
	}
	if mon != rec.MonCnt {
		return divergence("thread %s mon_cnt %d != recorded %d", t.VTID, mon, rec.MonCnt)
	}
	if methodIdx != rec.MethodIdx || pcOff != rec.PCOff {
		return divergence("thread %s at method %d pc %d, log says method %d pc %d",
			t.VTID, methodIdx, pcOff, rec.MethodIdx, rec.PCOff)
	}
	if lasn != rec.LASN {
		return divergence("thread %s waits at l_asn %d, log says %d", t.VTID, lasn, rec.LASN)
	}
	// Every counted branch the thread executed must have folded to the same
	// checksum. No value means "unchecked": a thread that has not branched
	// yet carries the non-zero seed, so a zeroed field is a divergence too.
	if t.Progress.Chk != rec.Chk {
		return divergence("thread %s control-path checksum %x != recorded %x",
			t.VTID, t.Progress.Chk, rec.Chk)
	}
	return nil
}

// OnDescheduled implements vm.Coordinator: replayed switches are already in
// the log; once the chain is drained, every further deschedule is a fresh
// scheduling decision the new backup (if any) must learn about.
func (c *schedReplay) OnDescheduled(v *vm.VM, prev, next *vm.Thread) error {
	if c.tail == nil || c.idx < len(c.a.switches) || c.a.open {
		return nil
	}
	if c.pendingSwitch {
		c.pendingSwitch = false
		return nil
	}
	return c.tail.OnDescheduled(v, prev, next)
}

// Poll implements vm.Coordinator: admit native-gated threads whose records
// arrived (warm backup; the dispatch chain still controls who runs).
func (c *schedReplay) Poll(v *vm.VM) (bool, error) { return c.admit(v, nil) }
