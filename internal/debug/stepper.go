package debug

import (
	"errors"
	"sync"

	"repro/internal/vm"
)

// The stepper wraps a replay coordinator and adds position control: it
// pauses the VM goroutine inside PickNext whenever the machine's global
// branch count reaches the requested target, and clamps dispatched slice
// budgets so execution can never overshoot the target. While paused the VM
// goroutine is blocked on a condition variable, so the controller may read
// every piece of machine state (the mutex hand-off establishes the
// happens-before edge); raising the target resumes execution to the next
// stop point.
//
// Transparency is the load-bearing property: the wrapped coordinator must
// observe exactly the call sequence it would see in an unclamped replay.
// Three facts make clamping invisible:
//
//  1. A clamped slice re-dispatches the SAME thread, so OnDescheduled
//     (which fires only when the dispatched thread changes) never fires at
//     a clamp stop.
//  2. A budget target obtained from the inner coordinator is cached when
//     clamped and re-dispatched without consulting the inner coordinator
//     again, so policies that draw randomness per decision draw exactly
//     once per real decision.
//  3. Exact targets (replayed switch points) are never cached: the
//     scheduling replay's PickNext is a pure function of its cursor until
//     the switch record is consumed at the recorded position, so
//     re-consulting it after a clamp stop yields the same target.
//
// Extra Poll calls at clamp stops are harmless: the replay coordinators'
// one admit loop gates admission on log-ordered sequence numbers, so Poll is
// monotone — it admits a thread exactly when its recorded turn has arrived,
// however often it is asked.
//
// The stepper embeds the replay coordinator and overrides only PickNext;
// every other hook is the inner coordinator's, unwrapped.
type stepper struct {
	vm.Coordinator

	mu   sync.Mutex
	cond *sync.Cond
	// target is the global branch position to pause at.
	target uint64
	// paused is true while the VM goroutine is blocked in PickNext.
	paused bool
	// done is true once the VM goroutine has returned from Run.
	done bool
	// aborted makes the next PickNext return errAborted.
	aborted bool

	cache stepCache
}

// stepCache is the clamped-dispatch memo; it is part of a checkpoint
// because a snapshot taken at a clamp stop must re-dispatch the cached
// target when resumed, exactly as the original would have.
type stepCache struct {
	// Valid is set when a budget target was clamped and must be
	// re-dispatched instead of consulting the inner coordinator.
	Valid bool
	// Slot identifies the clamped thread (slots are stable across clones).
	Slot int32
	// Target is the inner coordinator's original, unclamped target.
	Target vm.SliceTarget
	// ClampBr is the thread branch count the clamped slice stopped at; a
	// redispatch is only valid while the thread still stands exactly there.
	ClampBr uint64
}

// errAborted tears down an abandoned machine: Abort makes PickNext return
// it, Run propagates it out, and the session discards the goroutine.
var errAborted = errors.New("debug: machine aborted")

func newStepper(inner vm.Coordinator) *stepper {
	s := &stepper{Coordinator: inner}
	s.cond = sync.NewCond(&s.mu)
	return s
}

var _ vm.Coordinator = (*stepper)(nil)

// PickNext implements vm.Coordinator: pause at the target, then choose a
// dispatch whose slice cannot pass it.
func (s *stepper) PickNext(v *vm.VM, runnable []*vm.Thread, cur *vm.Thread) (*vm.Thread, vm.SliceTarget, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	g := v.GlobalBranches()
	for g >= s.target && !s.aborted && !s.done {
		s.paused = true
		s.cond.Broadcast()
		s.cond.Wait()
	}
	s.paused = false
	if s.aborted {
		return nil, vm.SliceTarget{}, errAborted
	}

	// A clamp stop left a thread standing mid-decision: if it is still
	// runnable at exactly the clamp position, continue its original slice
	// (re-clamped) rather than asking the inner coordinator for a fresh
	// decision it never knew was interrupted. If the thread blocked or died
	// before reaching the clamp, the interruption never bit and the inner
	// coordinator decides as usual.
	if s.cache.Valid {
		for _, t := range runnable {
			if t.Slot == s.cache.Slot && t.State() == vm.StateRunnable && t.BrCnt == s.cache.ClampBr {
				tgt := s.cache.Target
				s.cache.Valid = false
				return t, s.clampTarget(t, tgt, g), nil
			}
		}
		s.cache.Valid = false
	}

	t, tgt, err := s.Coordinator.PickNext(v, runnable, cur)
	if err != nil || t == nil {
		return t, tgt, err
	}
	return t, s.clampTarget(t, tgt, g), nil
}

// clampTarget bounds a slice target so the dispatched thread cannot carry
// the global branch count past the pause target, caching an interrupted
// budget decision for redispatch.
func (s *stepper) clampTarget(t *vm.Thread, tgt vm.SliceTarget, g uint64) vm.SliceTarget {
	// remaining >= 1: the pause loop guarantees g < target here.
	remaining := s.target - g
	clampBr := t.BrCnt + remaining
	if !tgt.Exact {
		if tgt.Br <= clampBr {
			return tgt
		}
		// Interrupt the budget slice at the target; remember the original
		// decision so it resumes rather than being re-made.
		s.cache = stepCache{Valid: true, Slot: t.Slot, Target: tgt, ClampBr: clampBr}
		return vm.SliceTarget{Br: clampBr}
	}
	if tgt.Br > clampBr {
		// The recorded switch lies beyond the target: stop at the target
		// with a plain budget; the switch record stays unconsumed and the
		// inner coordinator will re-issue this target after the stop.
		return vm.SliceTarget{Br: clampBr}
	}
	return tgt
}

// waitPaused blocks until the machine pauses at the target (true) or the
// run goroutine finishes first — halt, replayed crash end, or abort (false).
func (s *stepper) waitPaused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.paused && !s.done {
		s.cond.Wait()
	}
	return !s.done
}

// resumeTo raises the pause target and wakes the machine. Callers must hold
// the pause (waitPaused returned true) so the position only moves forward
// under their feet deliberately.
func (s *stepper) resumeTo(target uint64) {
	s.mu.Lock()
	s.target = target
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abort makes the machine's next PickNext fail with errAborted and wakes it.
func (s *stepper) abort() {
	s.mu.Lock()
	s.aborted = true
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// markDone records that the run goroutine returned, waking any waiter.
func (s *stepper) markDone() {
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// cacheState snapshots the clamp memo for a checkpoint.
func (s *stepper) cacheState() stepCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}

// setCacheState restores a checkpoint's clamp memo (before the machine runs).
func (s *stepper) setCacheState(c stepCache) {
	s.mu.Lock()
	s.cache = c
	s.mu.Unlock()
}
