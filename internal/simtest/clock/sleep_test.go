package clock

import (
	"fmt"
	"testing"
	"time"
)

// TestSoleActorSleepMatchesPark: Sleep's jump (a sole running actor, nothing
// due in the window) is an optimisation of NewWaitSlot().Park(d), not a second
// semantics. Every scenario is built twice and waited out once each way; both
// must leave the same virtual time, the same latch state on every slot, the
// same live events still scheduled and the same wake-up order of other actors
// — and Sleep must have jumped exactly where the rule says it may (observed
// through the schedule counter, which only the Park path consumes).
func TestSoleActorSleepMatchesPark(t *testing.T) {
	const d = 50 * time.Millisecond
	type world struct {
		v     *Virtual
		slots []WaitSlot
		woken []string // other actors' wake-ups, in order
	}
	signalAt := func(w *world, at time.Duration) {
		s := w.v.NewWaitSlot()
		w.v.ScheduleSignal(w.v.Now().Add(at), s)
		w.slots = append(w.slots, s)
	}
	// staleTimer leaves a cancelled timer at the heap top, due `at` from the
	// instant the scenario's wait will start: a park signalled before its
	// timeout keeps its timer event queued, marked cancelled.
	staleTimer := func(w *world, at time.Duration) {
		s := w.v.NewWaitSlot()
		w.v.ScheduleSignal(w.v.Now().Add(10*time.Millisecond), s)
		if s.Park(10*time.Millisecond + at) {
			t.Fatal("set-up park timed out; want the scheduled signal")
		}
	}
	for _, tc := range []struct {
		name    string
		jumps   bool
		prepare func(w *world)
		want    string
	}{
		{"empty heap", true, func(*world) {}, "now=50ms latched=[] live=0 woken=[]"},
		{"a signal due later stays scheduled", true,
			func(w *world) { signalAt(w, d+1) }, "now=50ms latched=[false] live=1 woken=[]"},
		{"one due earlier, one due exactly at the deadline: both fire first and latch", false,
			func(w *world) { signalAt(w, d/2); signalAt(w, d) }, "now=50ms latched=[true true] live=0 woken=[]"},
		{"a signal due exactly at the deadline alone", false,
			func(w *world) { signalAt(w, d) }, "now=50ms latched=[true] live=0 woken=[]"},
		{"a second attached actor wakes in deadline order", false,
			func(w *world) {
				w.v.Go(func() {
					w.v.Sleep(30 * time.Millisecond)
					w.woken = append(w.woken, fmt.Sprintf("b@%v", w.v.Elapsed()))
				})
			}, "now=50ms latched=[] live=0 woken=[b@30ms]"},
		{"a cancelled timer at the heap top, inside the window", false,
			func(w *world) { staleTimer(w, d/2) }, "now=60ms latched=[] live=0 woken=[]"},
		{"a cancelled timer at the heap top, beyond the window", true,
			func(w *world) { staleTimer(w, 2*d) }, "now=60ms latched=[] live=0 woken=[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			outcome := func(wait func(v *Virtual)) (string, bool) {
				w := &world{v: NewVirtual()}
				w.v.Attach()
				defer w.v.Detach()
				tc.prepare(w)
				w.v.mu.Lock()
				seq := w.v.seq
				w.v.mu.Unlock()
				wait(w.v)
				w.v.mu.Lock()
				defer w.v.mu.Unlock()
				latched, live := []bool{}, 0
				for _, s := range w.slots {
					latched = append(latched, s.(*vslot).latched)
				}
				for _, e := range w.v.events {
					if !e.canceled {
						live++
					}
				}
				return fmt.Sprintf("now=%v latched=%v live=%d woken=%v", w.v.now, latched, live, w.woken), w.v.seq == seq
			}
			slept, jumped := outcome(func(v *Virtual) { v.Sleep(d) })
			parked, _ := outcome(func(v *Virtual) {
				if !v.NewWaitSlot().Park(d) {
					t.Error("reference Park did not time out")
				}
			})
			if slept != parked || slept != tc.want {
				t.Errorf("Sleep left %q, Park left %q, want %q", slept, parked, tc.want)
			}
			if jumped != tc.jumps {
				t.Errorf("Sleep jumped = %v, want %v", jumped, tc.jumps)
			}
		})
	}
}

// TestSoleActorSleepAllocFree: the load generator's event loop is one actor
// sleeping from event to event a few hundred thousand times a run; that sleep
// allocates nothing (it was a slot, a channel, a timer event and a closure).
func TestSoleActorSleepAllocFree(t *testing.T) {
	v := NewVirtual()
	v.Attach()
	defer v.Detach()
	allocs := testing.AllocsPerRun(1000, func() { v.Sleep(time.Millisecond) })
	if allocs != 0 {
		t.Errorf("sole-actor Sleep allocs/run = %v, want 0", allocs)
	}
	if got := v.Elapsed(); got != 1001*time.Millisecond {
		t.Errorf("Elapsed = %v after 1001 sleeps of 1ms", got)
	}
}
