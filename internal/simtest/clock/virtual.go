package clock

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic simulated clock. Time never flows on its own:
// it jumps forward only when every attached actor goroutine is parked in a
// virtual wait, at which point the earliest scheduled event fires and wakes
// someone. At most one actor runs at a time: a Signal to a parked slot and a
// Go child do not start a second actor beside the running one, they schedule
// a wake at the current instant that fires once the running actor parks. So
// wakeups happen one event at a time, at global quiescence, in (deadline,
// priority, schedule-order) order, and a simulation driven entirely through
// one Virtual clock and its WaitSlots executes in an order that is a pure
// function of its inputs — rerunning the same seed replays the same
// interleaving, timeouts included. Actors yield only at clock-visible points,
// as the VM's green threads do at their scheduler's.
//
// Rules for code running under a Virtual clock:
//
//   - Every goroutine that parks (Sleep, WaitSlot.Park) must be an actor:
//     either spawned via Go or wrapped in Attach/Detach. Parking from a
//     non-actor panics — otherwise the clock would count more sleepers than
//     it knows about and freeze.
//   - Actors must not block on anything the clock cannot see (bare channel
//     receives, sync.Cond, sync.WaitGroup) while other actors depend on time
//     advancing; such waits stall virtual time forever. Nor may an actor spin
//     waiting for another: the other does not run until the spinner parks,
//     so a spinning actor starves every other one. Momentary mutex
//     acquisition is fine.
//   - A non-actor goroutine (e.g. a test's main goroutine) may freely wait on
//     ordinary sync primitives for actors to finish, and may Signal; it just
//     cannot use virtual waits itself.
type Virtual struct {
	mu       sync.Mutex
	now      time.Duration // offset from epoch
	actors   int           // goroutines participating in scheduling
	blocked  int           // actors currently parked in a virtual wait
	events   eventHeap
	seq      uint64 // schedule-order tiebreak for simultaneous events
	progress atomic.Uint64
	epoch    time.Time
}

// Event priorities: at equal deadlines, the wakes that Signal and Go schedule
// fire first, then message deliveries, then timer expiries, so that an ack
// racing its own timeout wins the tie — the generous reading a real network
// gives you, and the one that keeps timeout-boundary sweep points exploring
// the interesting schedule rather than a trivial one.
const (
	priRun     = -1
	priDeliver = 0
	priTimer   = 1
)

// NewVirtual returns a virtual clock at a fixed synthetic epoch with no
// actors and no scheduled events.
func NewVirtual() *Virtual {
	return &Virtual{epoch: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

var _ Clock = (*Virtual)(nil)

// Now implements Clock: the simulated time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch.Add(v.now)
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Elapsed returns total simulated time since the epoch.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock: the calling actor parks until virtual time reaches
// now+d. A sole running actor with nothing scheduled at or before now+d does
// not park: the advance would pop its own timer first and wake it at now+d
// with nothing else having fired, so the clock jumps there directly — no slot,
// channel, timer event or heap traffic. Anything due in the window (a
// cancelled timer included) takes the Park path, which fires it in order.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	if v.actors == 1 && v.blocked == 0 && (len(v.events) == 0 || v.events[0].at > v.now+d) {
		v.now += d
		v.progress.Add(1)
		v.mu.Unlock()
		return
	}
	v.mu.Unlock()
	v.NewWaitSlot().Park(d)
}

// Go implements Clock: fn runs on a new goroutine registered as an actor for
// its whole lifetime. Registration happens before Go returns, so the caller
// may immediately park without racing the child's startup. The child starts
// parked, woken at the current instant once the caller parks.
func (v *Virtual) Go(fn func()) {
	s := &vslot{clk: v, parked: true, ch: make(chan struct{})}
	v.mu.Lock()
	v.actors++
	v.blocked++
	v.wakeLocked(s)
	v.mu.Unlock()
	go func() {
		<-s.ch
		defer v.Detach()
		fn()
	}()
}

// Attach registers the calling goroutine as an actor. Pair with Detach.
// Use it to let an existing goroutine (a test body, a driver loop) perform
// virtual waits without being spawned through Go.
func (v *Virtual) Attach() {
	v.mu.Lock()
	v.actors++
	v.mu.Unlock()
}

// Detach deregisters the calling actor. If the remaining actors are all
// parked, the departure is itself a scheduling point: the next event fires.
// No deferred unlock: advanceLocked releases the mutex itself before raising
// its deadlock panic.
func (v *Virtual) Detach() {
	v.mu.Lock()
	v.actors--
	if v.actors < 0 {
		v.mu.Unlock()
		panic("simtest/clock: Detach without matching Attach/Go")
	}
	v.progress.Add(1)
	if v.actors > 0 && v.blocked == v.actors {
		v.advanceLocked()
	}
	v.mu.Unlock()
}

// NewWaitSlot implements Clock.
func (v *Virtual) NewWaitSlot() WaitSlot { return &vslot{clk: v} }

// ScheduleSignal schedules s to be signalled when virtual time reaches at.
// It is the hook the simulated network uses to make message deliveries
// clock-visible: the payload is enqueued immediately (under the network's own
// lock), and this delivery-priority event wakes the receiver once simulated
// time catches up. s must come from this clock's NewWaitSlot.
func (v *Virtual) ScheduleSignal(at time.Time, s WaitSlot) {
	vs, ok := s.(*vslot)
	if !ok || vs.clk != v {
		panic("simtest/clock: ScheduleSignal with a foreign WaitSlot")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pushLocked(&event{
		at:  at.Sub(v.epoch),
		pri: priDeliver,
		fire: func() {
			v.signalLocked(vs, false)
		},
	})
}

// vslot is the Virtual WaitSlot.
type vslot struct {
	clk      *Virtual
	parked   bool
	latched  bool
	gen      uint64
	ch       chan struct{}
	timedOut bool
	timerEv  *event
	// wake is the priRun event a Signal schedules for the parked slot;
	// wakePending holds while it is in the heap, so a second Signal before
	// it fires adds nothing.
	wake        event
	wakePending bool
}

// Park implements WaitSlot.
func (s *vslot) Park(timeout time.Duration) bool {
	v := s.clk
	v.mu.Lock()
	v.progress.Add(1)
	if s.latched {
		s.latched = false
		v.mu.Unlock()
		return false
	}
	if s.parked {
		v.mu.Unlock()
		panic("simtest/clock: concurrent Park on one WaitSlot")
	}
	s.gen++
	s.parked = true
	s.timedOut = false
	s.ch = make(chan struct{})
	if timeout > 0 {
		gen := s.gen
		s.timerEv = &event{
			at:  v.now + timeout,
			pri: priTimer,
			fire: func() {
				if s.parked && s.gen == gen {
					v.signalLocked(s, true)
				}
			},
		}
		v.pushLocked(s.timerEv)
	} else {
		s.timerEv = nil
	}
	v.blocked++
	if v.blocked > v.actors {
		n, b := v.actors, v.blocked
		v.mu.Unlock()
		panic(fmt.Sprintf("simtest/clock: Park from a goroutine that is not an attached actor (actors=%d blocked=%d) — spawn it with Clock.Go or wrap with Virtual.Attach", n, b))
	}
	if v.blocked == v.actors {
		v.advanceLocked()
	}
	ch := s.ch
	v.mu.Unlock()
	<-ch
	v.mu.Lock()
	out := s.timedOut
	v.mu.Unlock()
	return out
}

// Signal implements WaitSlot. A parked slot is not woken at once, beside the
// caller: its wake is scheduled at the current instant (wakeLocked).
func (s *vslot) Signal() {
	v := s.clk
	v.mu.Lock()
	defer v.mu.Unlock()
	v.progress.Add(1)
	if s.parked {
		v.wakeLocked(s)
	} else {
		s.latched = true
	}
}

// wakeLocked schedules a parked slot's wake at now, ahead of every delivery
// and timer at that instant. It fires at the next quiescence: when the
// running actor parks or, for a non-actor caller while every actor is
// already parked, right here.
func (v *Virtual) wakeLocked(s *vslot) {
	if s.wakePending {
		return
	}
	s.wakePending = true
	if s.wake.fire == nil {
		s.wake.fire = func() {
			s.wakePending = false
			v.signalLocked(s, false)
		}
	}
	s.wake.at, s.wake.pri = v.now, priRun
	v.pushLocked(&s.wake)
	if v.blocked == v.actors {
		v.advanceLocked()
	}
}

// signalLocked wakes a parked slot (counting it unblocked immediately, so an
// in-progress advance never mistakes a woken-but-not-yet-resumed actor for a
// sleeper and fires a second event prematurely), or latches the signal if the
// slot is idle. Called with v.mu held, from event fire functions inside
// advanceLocked, which is why event callbacks may only touch slot state.
func (v *Virtual) signalLocked(s *vslot, timedOut bool) {
	if !s.parked {
		if !timedOut {
			s.latched = true
		}
		return
	}
	s.parked = false
	s.timedOut = timedOut
	if s.timerEv != nil {
		s.timerEv.canceled = true
		s.timerEv = nil
	}
	v.blocked--
	close(s.ch)
}

// advanceLocked jumps simulated time forward while every actor is parked,
// firing events in (deadline, priority, schedule order) until one of them
// wakes an actor. All actors parked with nothing scheduled is a genuine
// deadlock: nothing can ever run again, so panic with the state dump rather
// than hang.
func (v *Virtual) advanceLocked() {
	for v.actors > 0 && v.blocked == v.actors {
		v.progress.Add(1)
		var e *event
		for {
			if len(v.events) == 0 {
				// Release the mutex before panicking so recover-based tests
				// (and deferred Detach calls) do not hang on a lock held by
				// a dead code path.
				msg := fmt.Sprintf(
					"simtest/clock: deadlock — all %d actors parked at virtual t=%s with no scheduled events (a goroutine is blocked outside the clock, or a Signal was lost)",
					v.actors, v.now)
				v.mu.Unlock()
				panic(msg)
			}
			e = heap.Pop(&v.events).(*event)
			if !e.canceled {
				break
			}
		}
		if e.at > v.now {
			v.now = e.at
		}
		e.fire()
	}
}

// pushLocked adds an event with the next schedule-order sequence number.
func (v *Virtual) pushLocked(e *event) {
	e.seq = v.seq
	v.seq++
	heap.Push(&v.events, e)
}

// Drive runs body as an actor on a fresh virtual clock, under a Watchdog of
// limit, and returns what body returned. The calling goroutine is not an
// actor, so it joins with a plain WaitGroup without stalling virtual time.
func Drive[R any](limit time.Duration, body func(*Virtual) (R, error)) (R, error) {
	clk := NewVirtual()
	defer clk.Watchdog(limit)()
	var (
		res R
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		res, err = body(clk)
	})
	wg.Wait()
	return res, err
}

// Watchdog starts a wall-clock monitor that panics if the simulation makes no
// progress (no park, signal, or advance) for limit. It catches the class of
// bug the virtual clock cannot see — an actor blocked on a bare channel while
// everyone else waits for time to advance. The returned stop function ends
// the watchdog; call it when the simulation completes.
func (v *Virtual) Watchdog(limit time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := limit / 8
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := Real.Timer(tick)
		defer t.Stop()
		last := v.progress.Load()
		stale := time.Duration(0)
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			if cur := v.progress.Load(); cur != last {
				last, stale = cur, 0
			} else if stale += tick; stale >= limit {
				v.mu.Lock()
				msg := fmt.Sprintf(
					"simtest/clock: watchdog — no simulation progress for %s (virtual t=%s, actors=%d, blocked=%d, pending events=%d); an actor is likely blocked outside the clock, or spinning without parking, which starves every other actor",
					limit, v.now, v.actors, v.blocked, len(v.events))
				v.mu.Unlock()
				panic(msg)
			}
			t.Reset(tick)
		}
	}()
	return func() { close(done) }
}

// event is a scheduled occurrence in virtual time. fire runs with the clock
// mutex held and must only mutate slot/latch state (signalLocked).
type event struct {
	at       time.Duration
	pri      int
	seq      uint64
	canceled bool
	fire     func()
}

// eventHeap orders events by (deadline, priority, schedule order).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
