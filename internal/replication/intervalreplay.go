package replication

import (
	"repro/internal/sehandler"
	"repro/internal/vm"
)

// intervalReplay is the backup-side coordinator for interval-compressed lock
// replication (§6, the DejaVu-style optimization): the log is a global
// sequence of (thread, count) logical intervals. Only the thread owning the
// current interval may perform real monitor acquisitions; after it performs
// its recorded count, the next interval takes over. Because each thread's
// program is deterministic, the interval sequence totally orders all
// acquisitions without per-acquisition records, lock ids, or id maps. It
// overrides BeforeAcquire, OnAcquired and Poll; scheduling (free, like lock
// mode) and lock ids (purely local) are the base's.
type intervalReplay struct {
	*nativeReplay
	idx      int
	consumed uint64
}

var _ vm.Coordinator = (*intervalReplay)(nil)

func newIntervalReplay(a *analysis, handlers *sehandler.Set, policy vm.SchedPolicy) *intervalReplay {
	c := &intervalReplay{nativeReplay: newNativeReplay(a, handlers)}
	c.Policy = seededOr(policy, 0x696e74)
	return c
}

func (c *intervalReplay) drained() bool {
	return c.idx >= len(c.a.intervals) && !c.a.open
}

// turnOf reports whether t holds the current interval (or the log is done).
func (c *intervalReplay) turnOf(t *vm.Thread) (bool, error) {
	if c.idx >= len(c.a.intervals) {
		// Past the last logged interval: free once the log is closed,
		// otherwise wait for the primary's next interval record.
		return !c.a.open, nil
	}
	cur := c.a.intervals[c.idx]
	if cur.TID != t.VTID {
		return false, nil
	}
	want := cur.StartTASN + c.consumed
	if t.TASN > want {
		return false, divergence("thread %s at t_asn %d overshot interval position %d", t.VTID, t.TASN, want)
	}
	return t.TASN == want, nil
}

// BeforeAcquire implements vm.Coordinator.
func (c *intervalReplay) BeforeAcquire(_ *vm.VM, t *vm.Thread, _ *vm.Monitor) (bool, error) {
	return c.turnOf(t)
}

// OnAcquired implements vm.Coordinator: advance within the interval.
func (c *intervalReplay) OnAcquired(v *vm.VM, t *vm.Thread, m *vm.Monitor) error {
	if c.idx >= len(c.a.intervals) {
		// Past the recovered log: live acquisitions open/extend intervals in
		// the new backup's log through the tail primary.
		if c.tail != nil {
			return c.tail.OnAcquired(v, t, m)
		}
		return nil
	}
	cur := c.a.intervals[c.idx]
	if cur.TID != t.VTID || t.TASN != cur.StartTASN+c.consumed {
		return divergence("thread %s acquired at t_asn %d outside interval (%s,%d,+%d)",
			t.VTID, t.TASN, cur.TID, cur.StartTASN, cur.Count)
	}
	c.consumed++
	if c.consumed == cur.Count {
		c.idx++
		c.consumed = 0
	}
	return nil
}

// Poll implements vm.Coordinator: admit the gated thread whose turn arrived.
func (c *intervalReplay) Poll(v *vm.VM) (bool, error) {
	return c.admit(v, func(t *vm.Thread, _ *vm.Monitor) (bool, error) { return c.turnOf(t) })
}
