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
// acquisitions without per-acquisition records, lock ids, or id maps.
type intervalReplay struct {
	*nativeReplay
	policy   vm.SchedPolicy
	idx      int
	consumed uint64
	lidNext  int64

	// GatedWakeups counts threads admitted by Poll.
	GatedWakeups uint64
}

var _ vm.Coordinator = (*intervalReplay)(nil)

func newIntervalReplay(a *analysis, handlers *sehandler.Set, policy vm.SchedPolicy) *intervalReplay {
	if policy == nil {
		policy = vm.NewSeededPolicy(0x696e74, 1024, 8192)
	}
	return &intervalReplay{nativeReplay: newNativeReplay(a, handlers), policy: policy}
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

// PickNext implements vm.Coordinator (free scheduling, like lock mode).
func (c *intervalReplay) PickNext(_ *vm.VM, runnable []*vm.Thread, cur *vm.Thread) (*vm.Thread, vm.SliceTarget, error) {
	t := c.policy.Next(runnable, cur)
	return t, vm.BudgetTarget(t, c.policy.Quantum()), nil
}

// OnDescheduled implements vm.Coordinator.
func (c *intervalReplay) OnDescheduled(*vm.VM, *vm.Thread, *vm.Thread) error { return nil }

// BeforeAcquire implements vm.Coordinator.
func (c *intervalReplay) BeforeAcquire(_ *vm.VM, t *vm.Thread, _ *vm.Monitor) (bool, error) {
	return c.turnOf(t)
}

// AssignLID implements vm.Coordinator: ids are purely local in this mode.
func (c *intervalReplay) AssignLID(*vm.VM, *vm.Thread, *vm.Monitor) (int64, bool, error) {
	c.lidNext++
	return c.lidNext, true, nil
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
	progress := false
	for _, t := range v.Threads() {
		if t.State() != vm.StateGated {
			continue
		}
		var ok bool
		var err error
		if t.BlockedOn() == nil {
			// Gated before an intercepted native call (warm backup).
			ok = c.ready(t)
		} else {
			ok, err = c.turnOf(t)
		}
		if err != nil {
			return false, err
		}
		if ok {
			v.Ungate(t)
			c.GatedWakeups++
			progress = true
		}
	}
	return progress, nil
}
