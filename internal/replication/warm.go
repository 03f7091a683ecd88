package replication

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/simtest/clock"
	"repro/internal/vm"
	"repro/internal/wire"
)

// WarmBackup is the "keeping the backup updated would require only minor
// modifications" variant (§1): instead of merely storing the log, the backup
// executes the program *while* the primary runs, consuming records as they
// arrive — semi-active replication. Threads gate at every coordination point
// whose record has not arrived yet (lock acquisitions, scheduling switches,
// intercepted natives, and the newest still-uncertain output); when the
// primary fails, the warm backup is already mid-execution and simply runs
// past the end of the log, so takeover latency is the remaining replay gap
// rather than a full re-execution.
type WarmBackup struct {
	receiver
	feed *warmFeed
}

// warmFeed is the shared, incrementally-fed log view: the serve goroutine
// appends under mu; the replay VM's coordinator methods run under the same
// mutex (the VM itself interprets outside it). The replay side waits for
// feed changes on a clock WaitSlot rather than a condition variable so that
// the wait is visible to a virtual clock (the slot has exactly one waiter:
// the warm VM goroutine, idling in OnIdle).
type warmFeed struct {
	mu   sync.Mutex
	slot clock.WaitSlot
	a    *analysis
	fed  int

	// restore rebuilds volatile environment state against the replay VM; set
	// by Run once that VM exists, consumed by close.
	restore func() error
}

func newWarmFeed(clk clock.Clock) *warmFeed {
	return &warmFeed{a: newAnalysis(), slot: clk.NewWaitSlot()}
}

// append indexes records and wakes the replay side; it is the warm backup's
// sink.
func (f *warmFeed) append(records []wire.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range records {
		if err := f.a.add(r); err != nil {
			return err
		}
		f.fed++
	}
	f.slot.Signal()
	return nil
}

// Fed returns the number of records fed so far (kill triggers, tests).
func (f *warmFeed) Fed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fed
}

// close seals the log (primary halted or failed) and rebuilds volatile
// environment state exactly once (the handlers' restore, §4.4) before the
// replay side is allowed to go live.
func (f *warmFeed) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.a.close()
	var err error
	if f.restore != nil {
		err, f.restore = f.restore(), nil
	}
	f.slot.Signal()
	return err
}

// warmCoordinator serialises an inner replay coordinator against the feed:
// every decision point runs under the feed mutex, and idling waits on the
// feed's condition variable until new records (or closure) arrive.
type warmCoordinator struct {
	feed  *warmFeed
	inner vm.Coordinator
	// sawClosed is set by the first OnIdle that finds the feed closed (VM
	// goroutine only).
	sawClosed bool
}

var _ vm.Coordinator = (*warmCoordinator)(nil)

func (w *warmCoordinator) PickNext(v *vm.VM, runnable []*vm.Thread, cur *vm.Thread) (*vm.Thread, vm.SliceTarget, error) {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.PickNext(v, runnable, cur)
}

func (w *warmCoordinator) OnDescheduled(v *vm.VM, prev, next *vm.Thread) error {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.OnDescheduled(v, prev, next)
}

func (w *warmCoordinator) BeforeAcquire(v *vm.VM, t *vm.Thread, m *vm.Monitor) (bool, error) {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.BeforeAcquire(v, t, m)
}

func (w *warmCoordinator) AssignLID(v *vm.VM, t *vm.Thread, m *vm.Monitor) (int64, bool, error) {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.AssignLID(v, t, m)
}

func (w *warmCoordinator) OnAcquired(v *vm.VM, t *vm.Thread, m *vm.Monitor) error {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.OnAcquired(v, t, m)
}

func (w *warmCoordinator) NativeReady(v *vm.VM, t *vm.Thread, def *native.Def) bool {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.NativeReady(v, t, def)
}

func (w *warmCoordinator) InvokeNative(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.InvokeNative(v, t, def, args)
}

func (w *warmCoordinator) Poll(v *vm.VM) (bool, error) {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.Poll(v)
}

// OnIdle blocks until the feed changes (new records or closure) while the
// log is open; once closed, idling means genuine deadlock. The park happens
// outside the mutex; the slot's latching makes a change between the unlock
// and the park a wakeup rather than a lost signal, and a stale latched
// wakeup only costs one spurious retry (the VM re-checks and idles again).
//
// The scheduler found nothing runnable before it called here, and the feed
// may have closed in between — which makes every thread waiting for a record
// that will now never come ready. So the first idle that sees the feed closed
// asks for one more look; the feed cannot change after that, and a second one
// is a deadlock.
func (w *warmCoordinator) OnIdle(v *vm.VM) (bool, error) {
	w.feed.mu.Lock()
	retry, err := w.inner.OnIdle(v)
	open := w.feed.a.open
	w.feed.mu.Unlock()
	switch {
	case retry || err != nil:
		return retry, err
	case open:
		w.feed.slot.Park(0)
		return true, nil
	case !w.sawClosed:
		w.sawClosed = true
		return true, nil
	}
	return false, nil
}

func (w *warmCoordinator) OnHalt(v *vm.VM, runErr error) error {
	w.feed.mu.Lock()
	defer w.feed.mu.Unlock()
	return w.inner.OnHalt(v, runErr)
}

// NewWarmBackup builds a warm backup replica.
func NewWarmBackup(cfg BackupConfig) (*WarmBackup, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("warm backup: nil endpoint")
	}
	r, err := newReceiver(cfg, "warm backup")
	if err != nil {
		return nil, err
	}
	w := &WarmBackup{receiver: r, feed: newWarmFeed(clock.Or(cfg.Clock))}
	w.sink = w.feed.append
	return w, nil
}

// Logged returns the number of records fed to the replay so far (kill
// triggers and tests poll it).
func (w *WarmBackup) Logged() int { return w.feed.Fed() }

// WarmResult describes a warm-backup run.
type WarmResult struct {
	Outcome ServeOutcome
	Serve   BackupStats
	Replay  *RecoveryReport
	// CaughtUpAtClose reports whether the replay had consumed the entire
	// log when the primary ended (takeover gap ≈ zero).
	CaughtUpAtClose bool
}

// Run serves the log and executes the program concurrently, returning when
// both the primary has ended (halt or failure) and the backup's execution
// has completed. On primary failure the execution continues live (the warm
// backup *is* the new primary); on clean halt it finishes replaying, leaving
// the backup hot with the program's full final state (all external outputs
// deduplicated by the exactly-once machinery).
func (w *WarmBackup) Run(cfg RecoverConfig) (*vm.VM, *WarmResult, error) {
	if cfg.Program == nil || cfg.Env == nil {
		return nil, nil, errors.New("warm backup: nil program or environment")
	}
	eng := newReplayEngine(&w.cfg, w.feed.a, cfg.Policy, nil)
	machine, err := eng.NewVM(cfg, &warmCoordinator{feed: w.feed, inner: eng.Coordinator()})
	if err != nil {
		return nil, nil, fmt.Errorf("warm vm: %w", err)
	}
	w.feed.restore = func() error { return eng.Restore(machine) }

	// The serve goroutine is spawned through the clock (it blocks in
	// Endpoint.Recv, which a simulated transport parks clock-visibly), and
	// the join below is a clock Flag rather than a channel receive: after
	// the replay VM finishes, serve may still be waiting out its
	// FailureTimeout, which under a virtual clock only expires if this
	// goroutine's wait is visible too.
	var outcome ServeOutcome
	var serveErr error
	clk := clock.Or(w.cfg.Clock)
	serveDone := clock.NewFlag(clk)
	clk.Go(func() {
		defer serveDone.Set()
		outcome, serveErr = w.serve()
		if cerr := w.feed.close(); cerr != nil && serveErr == nil {
			serveErr = cerr
		}
	})

	runErr := machine.Run()
	serveDone.Wait()
	if serveErr != nil {
		return machine, nil, fmt.Errorf("warm serve: %w", serveErr)
	}
	w.feed.mu.Lock()
	caughtUp := w.feed.a.nativePending == 0 && w.feed.a.lockPending == 0
	w.feed.mu.Unlock()

	res := &WarmResult{
		Outcome:         outcome,
		Serve:           w.stats,
		Replay:          eng.Report(machine, int(w.stats.RecordsLogged)),
		CaughtUpAtClose: caughtUp,
	}
	if runErr != nil {
		return machine, res, fmt.Errorf("warm execution: %w", runErr)
	}
	return machine, res, nil
}
