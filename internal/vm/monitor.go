package vm

import (
	"errors"
	"fmt"

	"repro/internal/heap"
)

// Monitor is the lock + condition variable associated with a heap object
// (Java's per-object monitor). Monitors are created lazily on first use.
type Monitor struct {
	// Ref is the heap object this monitor belongs to (not stable across
	// replicas).
	Ref heap.Ref
	// LID is the virtual lock id (§4.2): a replica-independent identity
	// assigned on first acquisition. -1 until assigned.
	LID int64
	// LASN is the lock acquire sequence number: how many times this lock
	// has been acquired so far.
	LASN uint64

	owner   *Thread
	entries int
	queue   []*Thread // threads contending for the lock (bookkeeping/GC)
	waitSet []*Thread // threads in wait(), FIFO
}

// Errors raised by monitor misuse (fatal run-time errors under R0).
var (
	ErrNotOwner        = errors.New("monitor not owned by current thread")
	ErrMonitorContends = errors.New("native-held monitor would contend")
)

// monitorOf returns (creating if needed) the monitor for object r. The
// object's header holds its index in the monitor table, so finding it costs
// no map lookup (Bacon et al.'s thin locks keep a monitor in the header too).
func (vm *VM) monitorOf(r heap.Ref) (*Monitor, error) {
	o, err := vm.hp.Get(r)
	if err != nil {
		return nil, err
	}
	if o.Mon > 0 {
		return vm.monitors[o.Mon-1], nil
	}
	m := &Monitor{Ref: r, LID: -1}
	vm.monitors = append(vm.monitors, m)
	o.Mon = int32(len(vm.monitors))
	return m, nil
}

// heldMonitor returns r's monitor when t owns it; op names the operation in
// the error otherwise.
func (vm *VM) heldMonitor(t *Thread, r heap.Ref, op string) (*Monitor, error) {
	if o, err := vm.hp.Get(r); err == nil && o.Mon > 0 {
		if m := vm.monitors[o.Mon-1]; m.owner == t {
			return m, nil
		}
	}
	return nil, fmt.Errorf("%s @%d: %w", op, r, ErrNotOwner)
}

// compactMonitors drops the monitors of collected objects — inactive ones:
// an owned, contended or waited-on monitor keeps its object alive — and
// rewrites the survivors' headers, so the table never outgrows the live heap.
// Table order (creation order) is kept; nothing observes it.
func (vm *VM) compactMonitors() {
	live := vm.monitors[:0]
	for _, m := range vm.monitors {
		o, err := vm.hp.Get(m.Ref)
		if err != nil {
			continue
		}
		live = append(live, m)
		o.Mon = int32(len(live))
	}
	clear(vm.monitors[len(live):])
	vm.monitors = live
}

// monEnter attempts to acquire r's monitor for t. On contention or replay
// gating the thread blocks and the caller must NOT advance the PC (the
// acquire is re-executed when the thread is rescheduled). Returns whether
// the acquisition completed.
func (vm *VM) monEnter(t *Thread, r heap.Ref) (bool, error) {
	if r == heap.NullRef {
		return false, fmt.Errorf("monitorenter: %w", heap.ErrNullRef)
	}
	if t.finalizerDepth > 0 {
		return false, errors.New("finalizer used a monitor (violates the deterministic-finalizer assumption, §4.3)")
	}
	m, err := vm.monitorOf(r)
	if err != nil {
		return false, fmt.Errorf("monitorenter: %w", err)
	}
	if m.owner == t {
		m.entries++
		t.MonCnt++
		return true, nil
	}
	// A real (non-reentrant) acquisition: the coordinator may gate it so the
	// backup reproduces the primary's acquisition order (§4.2).
	grant, err := vm.coord.BeforeAcquire(vm, t, m)
	if err != nil {
		return false, err
	}
	if !grant {
		t.state = StateGated
		t.blockedOn = m
		t.waitLASN = m.LASN
		return false, nil
	}
	if m.owner != nil {
		t.state = StateBlocked
		t.blockedOn = m
		t.waitLASN = m.LASN
		m.queue = append(m.queue, t)
		return false, nil
	}
	if err := vm.completeAcquire(t, m); err != nil {
		return false, err
	}
	// AssignLID may have gated the thread: it re-executes the acquire when
	// readmitted, like a thread BeforeAcquire gated.
	return t.state != StateGated, nil
}

// completeAcquire finalises a granted, uncontended acquisition: assigns the
// virtual lock id if needed (which may itself gate the thread during
// recovery), bumps sequence numbers and emits the acquisition event.
func (vm *VM) completeAcquire(t *Thread, m *Monitor) error {
	if m.LID < 0 {
		lid, granted, err := vm.coord.AssignLID(vm, t, m)
		if err != nil {
			return err
		}
		if !granted {
			t.state = StateGated
			t.blockedOn = m
			return nil
		}
		m.LID = lid
		vm.stats.ObjectsLocked++
	}
	m.owner = t
	m.entries = 1
	t.blockedOn = nil
	// Record values are the pre-increment sequence numbers ("number of
	// locks acquired so far", §4.2).
	if err := vm.coord.OnAcquired(vm, t, m); err != nil {
		return err
	}
	m.LASN++
	t.TASN++
	t.MonCnt++
	vm.stats.LocksAcquired++
	if m.LASN > vm.stats.LargestLASN {
		vm.stats.LargestLASN = m.LASN
	}
	return nil
}

// monExit releases one entry of r's monitor held by t.
func (vm *VM) monExit(t *Thread, r heap.Ref) error {
	if r == heap.NullRef {
		return fmt.Errorf("monitorexit: %w", heap.ErrNullRef)
	}
	m, err := vm.heldMonitor(t, r, "monitorexit")
	if err != nil {
		return err
	}
	m.entries--
	t.MonCnt++
	if m.entries > 0 {
		return nil
	}
	vm.releaseMonitor(m)
	return nil
}

// releaseMonitor frees m and makes every contender runnable again; they
// re-execute their acquire (barging is resolved deterministically by the
// scheduler/coordinator).
func (vm *VM) releaseMonitor(m *Monitor) {
	m.owner = nil
	if len(m.queue) == 0 {
		return
	}
	for _, q := range m.queue {
		if q.state == StateBlocked {
			q.state = StateRunnable
		}
	}
	m.queue = m.queue[:0]
}

// monWait implements Object.wait(): full release, join the wait set. The PC
// is not advanced; when notified the thread re-executes OpWait with
// reacquiring set, which turns it into a monitor acquisition that restores
// the saved reentrancy count.
func (vm *VM) monWait(t *Thread, r heap.Ref) error {
	if r == heap.NullRef {
		return fmt.Errorf("wait: %w", heap.ErrNullRef)
	}
	m, err := vm.heldMonitor(t, r, "wait")
	if err != nil {
		return err
	}
	t.savedEntries = m.entries
	t.reacquiring = true
	t.state = StateWaiting
	t.blockedOn = m
	t.waitLASN = m.LASN
	m.entries = 0
	t.MonCnt++ // the release half of the wait
	m.waitSet = append(m.waitSet, t)
	vm.releaseMonitor(m)
	return nil
}

// monNotify wakes up to n waiters (n < 0 means all) of r's monitor, FIFO.
// Woken threads contend for the monitor like ordinary acquirers.
func (vm *VM) monNotify(t *Thread, r heap.Ref, n int) error {
	if r == heap.NullRef {
		return fmt.Errorf("notify: %w", heap.ErrNullRef)
	}
	m, err := vm.heldMonitor(t, r, "notify")
	if err != nil {
		return err
	}
	if n < 0 || n > len(m.waitSet) {
		n = len(m.waitSet)
	}
	for i := 0; i < n; i++ {
		w := m.waitSet[i]
		// The waiter stays logically blocked on the monitor until the
		// owner releases it; it re-executes OpWait (reacquiring) then.
		w.state = StateBlocked
		m.queue = append(m.queue, w)
	}
	m.waitSet = m.waitSet[n:]
	return nil
}

// reacquireAfterWait is the second half of OpWait: acquire the monitor and
// restore the saved reentrancy count. Returns whether it completed.
func (vm *VM) reacquireAfterWait(t *Thread, r heap.Ref) (bool, error) {
	m, err := vm.monitorOf(r)
	if err != nil {
		return false, fmt.Errorf("wait reacquire: %w", err)
	}
	if m.owner == t {
		// Cannot happen: a waiting thread does not own the monitor.
		return false, fmt.Errorf("wait reacquire @%d: already owner", r)
	}
	grant, err := vm.coord.BeforeAcquire(vm, t, m)
	if err != nil {
		return false, err
	}
	if !grant {
		t.state = StateGated
		t.blockedOn = m
		return false, nil
	}
	if m.owner != nil {
		t.state = StateBlocked
		t.blockedOn = m
		m.queue = append(m.queue, t)
		return false, nil
	}
	if err := vm.completeAcquire(t, m); err != nil {
		return false, err
	}
	if t.state == StateGated {
		return false, nil
	}
	m.entries = t.savedEntries
	t.savedEntries = 0
	t.reacquiring = false
	return true, nil
}

// nativeMonEnter is the native-method callback for acquiring a monitor from
// inside native code (§4.2: lock operations transfer control back into the
// VM even when they originate in a native method, keeping mon_cnt correct).
// On contention — or a replay gate — it parks the thread exactly like a
// bytecode monitorenter and returns ErrMonitorContends; the interpreter then
// rolls the call back so the whole native re-executes when the thread is
// readmitted (which is why AcquiresLocks natives must be side-effect-free
// before their first acquisition).
func (vm *VM) nativeMonEnter(t *Thread, r heap.Ref) error {
	if r == heap.NullRef {
		return fmt.Errorf("native monitorenter: %w", heap.ErrNullRef)
	}
	m, err := vm.monitorOf(r)
	if err != nil {
		return fmt.Errorf("native monitorenter: %w", err)
	}
	if m.owner == t {
		m.entries++
		t.MonCnt++
		return nil
	}
	grant, err := vm.coord.BeforeAcquire(vm, t, m)
	if err != nil {
		return err
	}
	if !grant {
		t.state = StateGated
		t.blockedOn = m
		t.waitLASN = m.LASN
		return ErrMonitorContends
	}
	if m.owner != nil {
		t.state = StateBlocked
		t.blockedOn = m
		t.waitLASN = m.LASN
		m.queue = append(m.queue, t)
		return ErrMonitorContends
	}
	if err := vm.completeAcquire(t, m); err != nil {
		return err
	}
	if t.state == StateGated {
		return ErrMonitorContends
	}
	return nil
}
