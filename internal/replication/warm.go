package replication

import (
	"errors"
	"fmt"

	"repro/internal/simtest/clock"
	"repro/internal/vm"
)

// A warm backup is the "keeping the backup updated would require only minor
// modifications" variant (§1): the backup logs exactly as a cold one does,
// and a second reader of its log executes the program *while* the primary
// runs — semi-active replication. Threads gate at every coordination point
// whose record has not arrived yet (lock acquisitions, scheduling switches,
// intercepted natives, and the newest still-uncertain output); when the
// primary fails, the warm backup is already mid-execution and simply runs
// past the end of the log, so takeover latency is the remaining replay gap
// rather than a full re-execution. Cold and warm differ only in when replay
// starts.

// warmCoordinator is the engine's replay coordinator over a log that is still
// growing. Between slices — at Poll and at OnIdle, on the replay VM's
// goroutine — it pulls the segments stored since its last pull into the
// analysis, which no other goroutine touches: the store's mutex is the only
// lock the replay shares with the serve loop. Every other decision is the
// engine coordinator's, unwrapped.
type warmCoordinator struct {
	vm.Coordinator
	store *LogStore
	a     *analysis
	next  int // segments pulled so far
	// restore rebuilds volatile environment state against the replay VM
	// (the handlers' restore, §4.4); the pull that closes the log runs it.
	restore func() error
}

// pull indexes the records stored since the last pull. Once the serve loop
// has ended it closes the analysis — a trailing output intent becomes the
// uncertain output — and runs restore, exactly once, before the replay can
// go live. It reports whether the analysis changed.
func (w *warmCoordinator) pull() (bool, error) {
	if !w.a.open {
		return false, nil
	}
	from := w.next
	next, sealed, err := w.store.eachFrom(from, w.a.add)
	w.next = next
	if err != nil || !sealed {
		return next > from, err
	}
	w.a.close()
	return true, w.restore()
}

// Poll pulls, then admits the gated threads whose records have arrived.
func (w *warmCoordinator) Poll(v *vm.VM) (bool, error) {
	if _, err := w.pull(); err != nil {
		return false, err
	}
	return w.Coordinator.Poll(v)
}

// OnIdle retries at once when a pull changed the log. Otherwise, while the
// log is open, it parks until the store grows or is sealed; once the log is
// closed, idling with nothing new is a genuine deadlock. The slot latches, so
// a segment stored between the pull and the park is a wakeup rather than a
// lost signal, and a stale latched wakeup only costs one spurious retry.
func (w *warmCoordinator) OnIdle(v *vm.VM) (bool, error) {
	if grew, err := w.pull(); err != nil {
		return false, err
	} else if grew {
		return true, nil
	}
	retry, err := w.Coordinator.OnIdle(v)
	if retry || err != nil || !w.a.open {
		return retry, err
	}
	w.store.wake.Park(0)
	return true, nil
}

// WarmResult describes a warm-backup run.
type WarmResult struct {
	Outcome ServeOutcome
	Serve   BackupStats
	Replay  *RecoveryReport
	// CaughtUpAtClose reports whether the replay had consumed the entire
	// log when the primary ended (takeover gap ≈ zero).
	CaughtUpAtClose bool
}

// RunWarm serves the log, as Serve does, and replays it while it grows,
// returning when both the primary has ended (halt or failure) and the replay
// has completed. On primary failure the replay continues live (the warm
// backup *is* the new primary); on clean halt it finishes replaying, leaving
// the backup hot with the program's full final state (all external outputs
// deduplicated by the exactly-once machinery). The log stays in the store.
// Call it once, in place of Serve.
func (b *Backup) RunWarm(cfg RecoverConfig) (*vm.VM, *WarmResult, error) {
	if cfg.Program == nil || cfg.Env == nil {
		return nil, nil, errors.New("warm backup: nil program or environment")
	}
	if b.cfg.Endpoint == nil {
		return nil, nil, errors.New("warm backup: no endpoint")
	}
	clk := clock.Or(b.cfg.Clock)
	b.store.wake = clk.NewWaitSlot()
	a := newAnalysis()
	eng := newReplayEngine(&b.cfg, a, cfg.Policy, nil)
	w := &warmCoordinator{Coordinator: eng.Coordinator(), store: b.store, a: a}
	machine, err := eng.NewVM(cfg, w)
	if err != nil {
		return nil, nil, fmt.Errorf("warm vm: %w", err)
	}
	w.restore = func() error { return eng.Restore(machine) }

	// The serve goroutine is spawned through the clock (it blocks in
	// Endpoint.Recv, which a simulated transport parks clock-visibly), and
	// the join below is a clock Flag rather than a channel receive: after
	// the replay VM finishes, serve may still be waiting out its
	// FailureTimeout, which under a virtual clock only expires if this
	// goroutine's wait is visible too.
	var outcome ServeOutcome
	var serveErr error
	serveDone := clock.NewFlag(clk)
	clk.Go(func() {
		defer serveDone.Set()
		outcome, serveErr = b.Serve()
		b.store.seal()
	})

	runErr := machine.Run()
	serveDone.Wait()
	// A replay that finished before the serve loop ended closes the log (and
	// restores) here, on the goroutine it ran on.
	if _, err := w.pull(); err != nil && runErr == nil {
		runErr = err
	}
	if serveErr != nil {
		return machine, nil, fmt.Errorf("warm serve: %w", serveErr)
	}
	res := &WarmResult{
		Outcome:         outcome,
		Serve:           b.stats,
		Replay:          eng.Report(machine, b.store.Len()),
		CaughtUpAtClose: a.nativePending == 0 && a.lockPending == 0,
	}
	if runErr != nil {
		return machine, res, fmt.Errorf("warm execution: %w", runErr)
	}
	return machine, res, nil
}
