package clock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestVirtualSleepAdvancesInstantly: with a single actor asleep, virtual time
// jumps straight to its wakeup — no wall time passes.
func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual()
	start := Real.Now()
	var done sync.WaitGroup
	done.Add(1)
	v.Go(func() {
		defer done.Done()
		v.Sleep(10 * time.Hour)
	})
	done.Wait()
	if got := v.Elapsed(); got != 10*time.Hour {
		t.Fatalf("Elapsed = %v, want 10h", got)
	}
	if wall := Real.Since(start); wall > 5*time.Second {
		t.Fatalf("10h virtual sleep took %v wall", wall)
	}
}

// TestVirtualEventOrdering: sleeps of different lengths complete in deadline
// order regardless of spawn order, and each observes the exact virtual time.
func TestVirtualEventOrdering(t *testing.T) {
	v := NewVirtual()
	var mu sync.Mutex
	var order []string
	var done sync.WaitGroup
	// Hold the clock while the actors launch: with only some of them spawned
	// and all of those parked, the clock would rightly advance, and a sleeper
	// launched late would start from a later instant.
	v.Attach()
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		d := d
		done.Add(1)
		v.Go(func() {
			defer done.Done()
			v.Sleep(d)
			mu.Lock()
			order = append(order, fmt.Sprintf("%v@%v", d, v.Elapsed()))
			mu.Unlock()
		})
	}
	v.Detach()
	done.Wait()
	got := strings.Join(order, " ")
	want := "10ms@10ms 20ms@20ms 30ms@30ms"
	if got != want {
		t.Fatalf("wakeup order = %q, want %q", got, want)
	}
}

// TestSignalBeforeTimeout: a Signal scheduled (by another actor) before a
// park's deadline wakes the parker un-timed-out at the signaller's virtual
// time — the woken-but-not-yet-resumed actor must not be double-counted as
// blocked and fire the timeout anyway.
func TestSignalBeforeTimeout(t *testing.T) {
	v := NewVirtual()
	slot := v.NewWaitSlot()
	var done sync.WaitGroup
	done.Add(2)
	var timedOut bool
	var at time.Duration
	v.Go(func() {
		defer done.Done()
		timedOut = slot.Park(100 * time.Millisecond)
		at = v.Elapsed()
	})
	v.Go(func() {
		defer done.Done()
		v.Sleep(40 * time.Millisecond)
		slot.Signal()
	})
	done.Wait()
	if timedOut {
		t.Fatal("Park timed out despite Signal at t=40ms < deadline 100ms")
	}
	if at != 40*time.Millisecond {
		t.Fatalf("woke at %v, want 40ms", at)
	}
}

// TestDeliveryBeatsTimerAtTie: a ScheduleSignal landing exactly on a park's
// deadline wins the tie (delivery priority < timer priority), modelling an
// ack that arrives just as the timeout fires.
func TestDeliveryBeatsTimerAtTie(t *testing.T) {
	v := NewVirtual()
	slot := v.NewWaitSlot()
	v.ScheduleSignal(v.Now().Add(50*time.Millisecond), slot)
	var done sync.WaitGroup
	done.Add(1)
	var timedOut bool
	v.Go(func() {
		defer done.Done()
		timedOut = slot.Park(50 * time.Millisecond)
	})
	done.Wait()
	if timedOut {
		t.Fatal("timer beat a same-deadline delivery; deliveries must win ties")
	}
	if got := v.Elapsed(); got != 50*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 50ms", got)
	}
}

// TestLatchedSignal: a Signal with nobody parked is consumed by the next
// Park without any time passing.
func TestLatchedSignal(t *testing.T) {
	v := NewVirtual()
	slot := v.NewWaitSlot()
	slot.Signal()
	var done sync.WaitGroup
	done.Add(1)
	var timedOut bool
	v.Go(func() {
		defer done.Done()
		timedOut = slot.Park(time.Hour)
	})
	done.Wait()
	if timedOut || v.Elapsed() != 0 {
		t.Fatalf("latched signal: timedOut=%v elapsed=%v, want false, 0", timedOut, v.Elapsed())
	}
}

// TestStaleTimerIgnored: a park signalled early leaves its timer event in
// the heap; when that deadline is reached the canceled event must neither
// wake nor time out a later park on the same slot.
func TestStaleTimerIgnored(t *testing.T) {
	v := NewVirtual()
	slot := v.NewWaitSlot()
	var done sync.WaitGroup
	done.Add(2)
	var second bool
	v.Go(func() {
		defer done.Done()
		if slot.Park(30 * time.Millisecond) { // signalled at t=10ms
			t.Error("first park timed out")
		}
		second = slot.Park(100 * time.Millisecond) // crosses t=30ms, the stale deadline
	})
	v.Go(func() {
		defer done.Done()
		v.Sleep(10 * time.Millisecond)
		slot.Signal()
	})
	done.Wait()
	if !second {
		t.Fatal("second park was woken by the first park's stale timer")
	}
	if got := v.Elapsed(); got != 110*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 110ms (10ms signal + 100ms timeout)", got)
	}
}

// TestDeadlockPanics: all actors parked with an empty event heap is
// unrecoverable and must panic with diagnostics rather than hang.
func TestDeadlockPanics(t *testing.T) {
	v := NewVirtual()
	v.Attach()
	defer v.Detach()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on all-parked empty-heap deadlock")
		}
		if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("panic %v does not mention deadlock", r)
		}
	}()
	v.NewWaitSlot().Park(0) // sole actor, nothing scheduled
}

// TestParkFromNonActorPanics: parking without Attach/Go would desynchronize
// the blocked-actor accounting, so it must fail loudly.
func TestParkFromNonActorPanics(t *testing.T) {
	v := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Park from unattached goroutine")
		}
	}()
	v.NewWaitSlot().Park(time.Second)
}

// TestDetachAdvances: an actor exiting while the rest are parked is a
// scheduling point — the survivors' timers fire without further help.
func TestDetachAdvances(t *testing.T) {
	v := NewVirtual()
	var done sync.WaitGroup
	done.Add(1)
	v.Go(func() {
		defer done.Done()
		v.Sleep(5 * time.Millisecond)
	})
	v.Go(func() {
		// Exits immediately: its Detach must kick the sleeping actor's
		// timer rather than leaving virtual time frozen.
	})
	done.Wait()
	if got := v.Elapsed(); got != 5*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 5ms", got)
	}
}

// TestRealSlotLatchAndTimeout exercises the wall-clock WaitSlot: latched
// signals are consumed, and timeouts report as such. The slot keeps its
// timer: a timed Park after the first allocates nothing, and the reuse never
// fires early — after a timed-out Park and signalled Park(1h)s, a Park(20ms)
// still waits its 20 ms.
func TestRealSlotLatchAndTimeout(t *testing.T) {
	s := Real.NewWaitSlot()
	s.Signal()
	if s.Park(time.Second) {
		t.Fatal("latched signal reported as timeout")
	}
	if !s.Park(5 * time.Millisecond) {
		t.Fatal("empty slot did not time out")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Signal()
		if s.Park(time.Hour) {
			t.Fatal("latched signal reported as timeout")
		}
	})
	if allocs != 0 {
		t.Errorf("timed Park allocs/run = %v, want 0", allocs)
	}
	start := Real.Now()
	if !s.Park(20*time.Millisecond) || Real.Since(start) < 20*time.Millisecond {
		t.Fatalf("Park(20ms) on a reused timer returned after %v", Real.Since(start))
	}
}

// TestVirtualDeterminism: the same scenario run twice produces the identical
// wakeup transcript — the property every simulation test leans on.
func TestVirtualDeterminism(t *testing.T) {
	run := func() string {
		v := NewVirtual()
		var mu sync.Mutex
		var log []string
		var done sync.WaitGroup
		slot := v.NewWaitSlot()
		// Hold the clock while launching: otherwise it jumps as soon as the
		// first actor sleeps, and later actors start at a later instant.
		v.Attach()
		for i := 0; i < 4; i++ {
			i := i
			done.Add(1)
			v.Go(func() {
				defer done.Done()
				v.Sleep(time.Duration(7*(i+1)) * time.Millisecond)
				mu.Lock()
				log = append(log, fmt.Sprintf("a%d@%v", i, v.Elapsed()))
				mu.Unlock()
				if i == 2 {
					slot.Signal()
				}
			})
		}
		done.Add(1)
		v.Go(func() {
			defer done.Done()
			out := slot.Park(time.Hour)
			mu.Lock()
			log = append(log, fmt.Sprintf("w:%v@%v", out, v.Elapsed()))
			mu.Unlock()
		})
		v.Detach()
		done.Wait()
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n  first: %s\n  got:   %s", i+2, first, got)
		}
	}
}
