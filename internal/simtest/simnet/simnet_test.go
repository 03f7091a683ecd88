package simnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simtest/clock"
	"repro/internal/transport"
)

// TestDeliveryAndLatency: a message crosses the link within the configured
// virtual latency band, with zero wall-clock waiting.
func TestDeliveryAndLatency(t *testing.T) {
	v := clock.NewVirtual()
	cfg := Config{Seed: 1, MinDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	a, b := Link(v, cfg)
	var done sync.WaitGroup
	done.Add(2)
	v.Go(func() {
		defer done.Done()
		if err := a.Send([]byte("hello")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	var got []byte
	var err error
	v.Go(func() {
		defer done.Done()
		got, err = b.Recv(0)
	})
	done.Wait()
	if err != nil || string(got) != "hello" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if e := v.Elapsed(); e < cfg.MinDelay || e > cfg.MaxDelay {
		t.Fatalf("delivered at %v, want within [%v, %v]", e, cfg.MinDelay, cfg.MaxDelay)
	}
}

// TestFIFO: without reordering enabled, messages arrive in send order even
// though each draws an independent latency.
func TestFIFO(t *testing.T) {
	v := clock.NewVirtual()
	a, b := Link(v, Config{Seed: 7})
	const n = 50
	var done sync.WaitGroup
	done.Add(2)
	v.Go(func() {
		defer done.Done()
		for i := 0; i < n; i++ {
			if err := a.Send([]byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
		}
	})
	var order []string
	v.Go(func() {
		defer done.Done()
		for i := 0; i < n; i++ {
			msg, err := b.Recv(0)
			if err != nil {
				t.Errorf("Recv %d: %v", i, err)
				return
			}
			order = append(order, string(msg))
		}
	})
	done.Wait()
	for i, m := range order {
		if m != fmt.Sprintf("m%02d", i) {
			t.Fatalf("position %d got %s; FIFO clamp violated", i, m)
		}
	}
}

// TestRecvTimeout: a Recv deadline on a silent link expires at exactly the
// virtual timeout.
func TestRecvTimeout(t *testing.T) {
	v := clock.NewVirtual()
	_, b := Link(v, Config{Seed: 3})
	var done sync.WaitGroup
	done.Add(1)
	var err error
	v.Go(func() {
		defer done.Done()
		_, err = b.Recv(75 * time.Millisecond)
	})
	done.Wait()
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := v.Elapsed(); got != 75*time.Millisecond {
		t.Fatalf("timed out at %v, want exactly 75ms", got)
	}
}

// TestDrainOnClose: messages in flight when the sender closes are still
// delivered before ErrClosed — the same contract as the in-process pipe,
// which the backup's failure detector depends on to see the final frames of
// a crashing primary.
func TestDrainOnClose(t *testing.T) {
	v := clock.NewVirtual()
	a, b := Link(v, Config{Seed: 9})
	var done sync.WaitGroup
	done.Add(2)
	v.Go(func() {
		defer done.Done()
		_ = a.Send([]byte("one"))
		_ = a.Send([]byte("two"))
		_ = a.Close()
	})
	var got []string
	var finalErr error
	v.Go(func() {
		defer done.Done()
		for {
			msg, err := b.Recv(0)
			if err != nil {
				finalErr = err
				return
			}
			got = append(got, string(msg))
		}
	})
	done.Wait()
	if strings.Join(got, ",") != "one,two" {
		t.Fatalf("drained %v, want [one two]", got)
	}
	if !errors.Is(finalErr, transport.ErrClosed) {
		t.Fatalf("final err = %v, want ErrClosed", finalErr)
	}
}

// TestSendHook: the hook sees 1-based send indices and can suppress exactly
// one message — the kill-point positioning mechanism.
func TestSendHook(t *testing.T) {
	v := clock.NewVirtual()
	a, b := Link(v, Config{Seed: 11})
	a.SetSendHook(func(n int, msg []byte) bool { return n != 2 })
	var done sync.WaitGroup
	done.Add(2)
	v.Go(func() {
		defer done.Done()
		for _, m := range []string{"first", "second", "third"} {
			_ = a.Send([]byte(m))
		}
		_ = a.Close()
	})
	var got []string
	v.Go(func() {
		defer done.Done()
		for {
			msg, err := b.Recv(0)
			if err != nil {
				return
			}
			got = append(got, string(msg))
		}
	})
	done.Wait()
	if strings.Join(got, ",") != "first,third" {
		t.Fatalf("got %v, want the hook to swallow only send #2", got)
	}
	if a.Sends() != 3 {
		t.Fatalf("Sends = %d, want 3 (suppressed sends still count)", a.Sends())
	}
}

// TestReorder: with the FIFO clamp always skipped, some pair of messages
// arrives out of send order (seed chosen so the latency draws cross).
func TestReorder(t *testing.T) {
	v := clock.NewVirtual()
	a, b := Link(v, Config{Seed: 5, MinDelay: 10 * time.Microsecond, MaxDelay: 5 * time.Millisecond, ReorderNum: 1, ReorderDen: 1})
	const n = 20
	var done sync.WaitGroup
	done.Add(2)
	v.Go(func() {
		defer done.Done()
		for i := 0; i < n; i++ {
			_ = a.Send([]byte(fmt.Sprintf("m%02d", i)))
		}
		_ = a.Close()
	})
	var order []string
	v.Go(func() {
		defer done.Done()
		for {
			msg, err := b.Recv(0)
			if err != nil {
				return
			}
			order = append(order, string(msg))
		}
	})
	done.Wait()
	if len(order) != n {
		t.Fatalf("received %d messages, want %d", len(order), n)
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("all %d messages arrived in send order with reordering forced on", n)
	}
}

// TestDeterminism: the same seed yields a byte-identical delivery transcript
// (payload and virtual timestamp of every receive) across runs.
func TestDeterminism(t *testing.T) {
	run := func() string {
		v := clock.NewVirtual()
		a, b := Link(v, Config{Seed: 42, ReorderNum: 1, ReorderDen: 4})
		var done sync.WaitGroup
		done.Add(2)
		// Hold the clock until both actors exist: a sender that parks before
		// the receiver is launched would otherwise be the only actor, and
		// virtual time would advance under a receiver that has not started.
		v.Attach()
		v.Go(func() {
			defer done.Done()
			for i := 0; i < 25; i++ {
				_ = a.Send([]byte(fmt.Sprintf("m%02d", i)))
				if i%5 == 4 {
					v.Sleep(300 * time.Microsecond)
				}
			}
			_ = a.Close()
		})
		var log []string
		v.Go(func() {
			defer done.Done()
			for {
				msg, err := b.Recv(2 * time.Millisecond)
				if errors.Is(err, transport.ErrTimeout) {
					log = append(log, fmt.Sprintf("timeout@%v", v.Elapsed()))
					continue
				}
				if err != nil {
					return
				}
				log = append(log, fmt.Sprintf("%s@%v", msg, v.Elapsed()))
			}
		})
		v.Detach()
		done.Wait()
		return strings.Join(log, "\n")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("transcript diverged on rerun %d:\n--- first\n%s\n--- got\n%s", i+2, first, got)
		}
	}
	if !strings.Contains(first, "@") || len(first) == 0 {
		t.Fatal("empty transcript")
	}
}
