package replication

import (
	"repro/internal/sehandler"
	"repro/internal/vm"
)

// lockReplay is the backup-side coordinator for replicated lock acquisition
// (§4.2): the backup's threads are scheduled by the backup's own policy (a
// different interleaving than the primary's), but every monitor acquisition
// is gated until its recorded turn — (t_id, t_asn) must match the next
// record for the thread and the lock's acquire sequence number must equal
// the recorded l_asn. Virtual lock ids are reproduced through the logged id
// maps; threads acquiring a not-yet-identified lock wait until the map is
// matched or, when no maps remain, assign a fresh id (end-of-recovery rule).
// It overrides BeforeAcquire, AssignLID, OnAcquired and Poll; scheduling is
// the base's, by the replay's policy.
type lockReplay struct {
	*nativeReplay
	// lidNext mints the ids of locks first acquired past the id maps.
	lidNext int64
}

var _ vm.Coordinator = (*lockReplay)(nil)

func newLockReplay(a *analysis, handlers *sehandler.Set, policy vm.SchedPolicy) *lockReplay {
	c := &lockReplay{nativeReplay: newNativeReplay(a, handlers)}
	c.Policy = seededOr(policy, 0x6261636b7570)
	return c
}

// recoveryDone reports whether every logged event has been consumed.
func (c *lockReplay) recoveryDone() bool {
	return c.a.lockPending == 0 && c.a.idmapPending == 0 && c.drained()
}

// canAcquire evaluates — without consuming anything — whether t's pending
// acquisition of m may proceed now. It implements the waiting rules of §4.2.
func (c *lockReplay) canAcquire(t *vm.Thread, m *vm.Monitor) (bool, error) {
	tl := c.threadLog(t)
	if len(tl.lock) == 0 {
		// No record for this acquisition: either the primary never got here
		// (cold recovery: wait for the global drain, then run free — "end
		// of recovery at the backup") or, while the log is open, the record
		// simply has not arrived yet.
		//
		// One exception on a closed log: an id map addressed to exactly
		// (t, t_asn) whose acquisition record was cut off by the log prefix.
		// The map proves this acquisition created the lock at the primary —
		// a first-ever acquisition has no cross-thread ordering to wait for,
		// so the assigner may proceed (and consume the map in AssignLID).
		// Without this, the orphaned map holds idmapPending above zero and
		// deadlocks every thread gated on the global drain.
		if !c.a.open && m.LID < 0 {
			if _, hasMap := tl.idmaps[t.TASN]; hasMap {
				return true, nil
			}
		}
		return c.a.lockPending == 0 && c.a.idmapPending == 0 && !c.a.open, nil
	}
	rec := tl.lock[0]
	if rec.TASN != t.TASN {
		return false, divergence("thread %s at t_asn %d, log head has t_asn %d", t.VTID, t.TASN, rec.TASN)
	}
	if m.LID < 0 {
		// The lock has no id yet at the backup.
		if im, ok := tl.idmaps[t.TASN]; ok {
			// This thread performed the first-ever acquisition at the
			// primary: it may proceed and will assign im.LID itself.
			if im.LID != rec.LID {
				return false, divergence("thread %s t_asn %d: id map lid %d != record lid %d",
					t.VTID, t.TASN, im.LID, rec.LID)
			}
			return true, nil
		}
		// Another thread assigns this lock's id; wait until it does (the
		// monitor's LID becomes >= 0) or no id maps remain (and none can
		// arrive).
		return c.a.idmapPending == 0 && !c.a.open, nil
	}
	if rec.LID != m.LID {
		return false, divergence("thread %s t_asn %d: acquiring lid %d, log says lid %d",
			t.VTID, t.TASN, m.LID, rec.LID)
	}
	if m.LASN > rec.LASN {
		return false, divergence("lid %d overshoot: l_asn %d past recorded %d", m.LID, m.LASN, rec.LASN)
	}
	return m.LASN == rec.LASN, nil
}

// BeforeAcquire implements vm.Coordinator: the backup schedules with its own
// policy; only this gate makes the lock order agree with the primary.
func (c *lockReplay) BeforeAcquire(_ *vm.VM, t *vm.Thread, m *vm.Monitor) (bool, error) {
	return c.canAcquire(t, m)
}

// AssignLID implements vm.Coordinator: reproduce the primary's assignment
// through the id map, or mint a fresh id once no maps remain.
func (c *lockReplay) AssignLID(_ *vm.VM, t *vm.Thread, _ *vm.Monitor) (int64, bool, error) {
	tl := c.threadLog(t)
	if im, ok := tl.idmaps[t.TASN]; ok {
		delete(tl.idmaps, t.TASN)
		c.a.idmapPending--
		return im.LID, true, nil
	}
	if c.a.idmapPending > 0 || c.a.open {
		// Defensive: BeforeAcquire should have gated this thread.
		return 0, false, nil
	}
	if c.lidNext <= c.a.maxLID {
		c.lidNext = c.a.maxLID
	}
	c.lidNext++
	if c.tail != nil {
		// A live, first-ever acquisition past the recovered log: the new
		// backup needs the id map just as the old one would have gotten it.
		if err := c.tail.LogIDMap(t, c.lidNext); err != nil {
			return 0, false, err
		}
	}
	return c.lidNext, true, nil
}

// OnAcquired implements vm.Coordinator: consume and cross-check the
// acquisition record.
func (c *lockReplay) OnAcquired(v *vm.VM, t *vm.Thread, m *vm.Monitor) error {
	tl := c.threadLog(t)
	if len(tl.lock) == 0 {
		// This thread ran past its logged acquisitions (live). Under
		// promotion the acquisition is a fresh event the new backup must log;
		// this also pairs up the orphan-id-map case, whose map came from the
		// snapshot but whose acquisition record the old log prefix cut off.
		if c.tail != nil {
			return c.tail.OnAcquired(v, t, m)
		}
		return nil
	}
	rec := tl.lock[0]
	if rec.TASN != t.TASN {
		return divergence("thread %s acquired at t_asn %d, log head has t_asn %d", t.VTID, t.TASN, rec.TASN)
	}
	if rec.LID != m.LID || rec.LASN != m.LASN {
		return divergence("thread %s t_asn %d acquired lid %d l_asn %d, log says lid %d l_asn %d",
			t.VTID, t.TASN, m.LID, m.LASN, rec.LID, rec.LASN)
	}
	tl.lock = tl.lock[1:]
	c.a.lockPending--
	return nil
}

// Poll implements vm.Coordinator: admit gated threads whose recorded turn
// has arrived.
func (c *lockReplay) Poll(v *vm.VM) (bool, error) { return c.admit(v, c.canAcquire) }
