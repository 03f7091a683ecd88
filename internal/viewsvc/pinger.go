package viewsvc

import (
	"sync/atomic"
	"time"

	"repro/internal/simtest/clock"
)

// loop is the shared stoppable periodic actor: it parks on a clock wait slot
// with the period as timeout (so a virtual clock sees and advances the wait)
// and runs fn on every period expiry until stopped. Signal-without-stop
// wakeups just re-park, mirroring the primary's heartbeat loop.
type loop struct {
	slot    clock.WaitSlot
	stopped atomic.Bool
	done    chan struct{}
}

func startLoop(clk clock.Clock, every time.Duration, fn func()) *loop {
	l := &loop{slot: clk.NewWaitSlot(), done: make(chan struct{})}
	clk.Go(func() {
		defer close(l.done)
		for {
			timedOut := l.slot.Park(every)
			if l.stopped.Load() {
				return
			}
			if !timedOut {
				continue
			}
			fn()
		}
	})
	return l
}

// Stop halts the loop and waits for it to exit. The loop needs no further
// clock advance once signalled, so the bare channel wait is virtual-clock
// safe.
func (l *loop) Stop() {
	if l.stopped.CompareAndSwap(false, true) {
		l.slot.Signal()
	}
	<-l.done
}

// Pinger heartbeats one node's membership to the directory on a fixed period
// — the node-side half of ping-based failure detection. Stop it when the node
// dies (or to simulate its death).
type Pinger struct{ l *loop }

// NewPinger starts pinging d as name every period.
func NewPinger(d *ShardDirectory, name string, every time.Duration) *Pinger {
	return &Pinger{l: startLoop(d.clk, every, func() { d.Ping(name) })}
}

// Stop halts the pinger; the directory will declare the node dead one
// FailTimeout later.
func (p *Pinger) Stop() { p.l.Stop() }

// Watcher drives the directory's failure detector periodically — the
// directory-side half. One Watcher per directory suffices.
type Watcher struct{ l *loop }

// NewWatcher ticks d every period.
func NewWatcher(d *ShardDirectory, every time.Duration) *Watcher {
	return &Watcher{l: startLoop(d.clk, every, func() { d.Tick() })}
}

// Stop halts the watcher.
func (w *Watcher) Stop() { w.l.Stop() }
