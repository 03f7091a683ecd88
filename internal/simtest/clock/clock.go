// Package clock is the repository's injectable time source. Everything in the
// replication stack that waits, times out, or timestamps goes through a Clock
// so that the deterministic simulation harness (internal/simtest) can replace
// wall time with a virtual clock and run whole fault schedules in microseconds
// of real time, in a reproducible order derived from one seed.
//
// The clock-injection rule (see DESIGN.md §"Deterministic time"): no naked
// time.Now / time.Sleep / time.After / time.NewTimer / time.NewTicker outside
// this subtree and main packages. Code that genuinely needs wall time (TCP
// socket deadlines, benchmark measurement) opts in explicitly through the
// concrete RealClock value (clock.Real.Now(), clock.Real.Timer(...)), which
// the lint permits and a reviewer can grep for.
package clock

import (
	"sync"
	"time"
)

// Clock abstracts time for the replication, transport, and harness layers.
//
// Two implementations exist: Real (wall time, the default everywhere) and
// *Virtual (internal/simtest's deterministic simulated time). Code written
// against this interface runs identically under both — except that under a
// Virtual clock, waits complete in virtual time (instantly in wall terms) and
// in a deterministic order.
type Clock interface {
	// Now returns the current time. Virtual clocks report simulated time
	// anchored at a fixed synthetic epoch.
	Now() time.Time
	// Since returns the elapsed time from t to Now.
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for d. Under a Virtual clock the
	// caller must be an attached actor (see Virtual.Attach / Clock.Go).
	Sleep(d time.Duration)
	// NewWaitSlot returns a parking slot for condition-style waits with
	// timeouts — the primitive behind every interruptible wait in the
	// replication stack (heartbeat pacing, ack waits via the transports,
	// kill-trigger polls, the warm backup's wait for its log to grow).
	NewWaitSlot() WaitSlot
	// Go runs fn on a new goroutine that participates in this clock's
	// scheduling: a Virtual clock counts it as an actor whose running state
	// inhibits time from advancing; the real clock just spawns a goroutine.
	Go(fn func())
}

// WaitSlot is a single-consumer parking slot: one goroutine Parks, any
// goroutine Signals. A Signal delivered while nobody is parked is latched and
// consumed by the next Park (so the usual "set condition under lock, then
// Signal" pattern never loses a wakeup). Spurious wakeups do not occur, but
// callers should re-check their condition in a loop regardless, because one
// latched Signal can cover several condition changes.
type WaitSlot interface {
	// Park blocks until Signal is called or timeout elapses; timeout <= 0
	// means no timeout. It reports whether the wakeup was the timeout.
	Park(timeout time.Duration) (timedOut bool)
	// Signal wakes the parked goroutine (or latches if none is parked).
	Signal()
}

// Real is the wall clock. It is the default for every configurable clock in
// the repository; passing a nil Clock means Real (see Or).
var Real RealClock

// Or returns c, or Real when c is nil — the standard default-fill for
// config structs carrying an optional Clock.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

// RealClock implements Clock with package time. Beyond the interface it
// exposes the explicit wall-time escape hatches (Timer) that real-time-only
// code (TCP deadlines, latency calibration) uses to satisfy the clock lint.
type RealClock struct{}

var _ Clock = RealClock{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Since implements Clock.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Go implements Clock.
func (RealClock) Go(fn func()) { go fn() }

// Timer returns a real *time.Timer — the explicit, lint-sanctioned opt-in
// for code that must wait in wall time even under simulation.
func (RealClock) Timer(d time.Duration) *time.Timer { return time.NewTimer(d) }

// NewWaitSlot implements Clock.
func (RealClock) NewWaitSlot() WaitSlot { return &realSlot{ch: make(chan struct{}, 1)} }

// realSlot is the wall-clock WaitSlot: a latching one-slot channel plus a
// timer-bounded receive. The timer is made by the first timed Park and Reset
// by every later one, so a slot that is parked on over and over (a heartbeat
// loop, a replica's main loop, a pipe's reused waiter) allocates it once.
type realSlot struct {
	ch chan struct{}
	t  *time.Timer
}

// Park implements WaitSlot.
func (s *realSlot) Park(timeout time.Duration) bool {
	if timeout <= 0 {
		<-s.ch
		return false
	}
	if s.t == nil {
		s.t = time.NewTimer(timeout)
	} else {
		s.t.Reset(timeout)
	}
	select {
	case <-s.ch:
		// A timer that fired as the signal won may still be sending its
		// tick (go 1.22's timers send after Stop can no longer stop them),
		// and a late tick would end the next Park at once: drop that timer.
		if !s.t.Stop() {
			s.t = nil
		}
		return false
	case <-s.t.C:
		return true
	}
}

// Signal implements WaitSlot.
func (s *realSlot) Signal() {
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// Flag is a clock-visible one-shot event for joining a goroutine: the worker
// calls Set when done, one waiter calls Wait. It replaces the
// close(done)/<-done channel idiom in code that must also run under a
// virtual clock, where a bare channel receive would stall simulated time.
// Set-before-Wait ordering is latched; state written before Set is visible
// after Wait (the flag's mutex carries the happens-before edge, like a
// channel close would). Single waiter only — the slot underneath wakes one
// parker.
type Flag struct {
	slot WaitSlot
	mu   sync.Mutex
	set  bool
}

// NewFlag returns an unset flag on c's clock.
func NewFlag(c Clock) *Flag { return &Flag{slot: Or(c).NewWaitSlot()} }

// Set latches the flag and wakes the waiter. Idempotent.
func (f *Flag) Set() {
	f.mu.Lock()
	f.set = true
	f.mu.Unlock()
	f.slot.Signal()
}

// IsSet reports whether Set has been called.
func (f *Flag) IsSet() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

// Wait parks until Set has been called.
func (f *Flag) Wait() {
	for !f.IsSet() {
		f.slot.Park(0)
	}
}
