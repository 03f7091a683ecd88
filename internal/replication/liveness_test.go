package replication

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// These liveness tests run entirely on a virtual clock over the simulated
// link: the AckTimeout wait, the backup's silence, and the failure-detection
// deadline all play out in simulated time, so a 200ms detection window costs
// microseconds of wall time, the schedule is a pure function of the simnet
// seed, and there is not a single time.Sleep in the file. (They previously
// drove real transport.Pipe endpoints with wall-clock timeouts; see DESIGN.md
// §"Deterministic time" for which tests deliberately stay real-time.)

// silentBackup acks the first ackUntil ack-wanted frames, then goes silent —
// still draining frames (so the channel stays open and writable) but never
// acknowledging again. It models a backup process that wedges rather than
// crashing: only the primary's AckTimeout can detect it. The loop runs as a
// clock actor so its receive waits are visible to the virtual scheduler.
func silentBackup(t *testing.T, clk clock.Clock, ep transport.Endpoint, ackUntil int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		acked := 0
		for {
			msg, err := ep.Recv(2 * time.Second)
			if err != nil {
				return
			}
			frame, err := wire.DecodeFrame(msg)
			if err != nil {
				return
			}
			if frame.AckWanted && acked < ackUntil {
				acked++
				if err := ep.Send(wire.AppendAck(nil, frame.Epoch, frame.Seq)); err != nil {
					return
				}
			}
		}
	})
	return &wg
}

// runAgainstSilentBackup runs faultProgram on the virtual clock under a pair
// primary that waits at most ackTimeout for an ack, whose backup acks only the
// first output commit ("start") and then wedges. It returns the
// primary, the environment, the run's duration in virtual time and its error.
//
// The test body holds the clock (Attach) from before the backup actor starts
// until the VM actor is spawned. Without that the backup is, for a while, the
// only actor, and parked: virtual time free-runs through its 2s receive
// timeout while the bare test goroutine is still building the primary, the
// backup exits, and the *first* commit then times out (console = [], seen in
// 21 of 400 runs before the hold, 0 of 400 after).
func runAgainstSilentBackup(t *testing.T, netSeed int64, ackTimeout time.Duration) (*Primary, *env.Env, time.Duration, error) {
	t.Helper()
	prog := mustAssemble(t, faultProgram)
	clk := clock.NewVirtual()
	defer clk.Watchdog(30 * time.Second)()
	clk.Attach()
	environ := env.New(1234)
	pEnd, bEnd := simnet.Link(clk, simnet.Config{Seed: netSeed})
	wg := silentBackup(t, clk, bEnd, 1)

	primary, err := NewPrimary(PrimaryConfig{Mode: ModeLock, FlushEvery: 4, Clock: clk, Policy: vm.NewSeededPolicy(77, 64, 512),
		Backend: pairOf(PairBackendConfig{Endpoint: pEnd, Clock: clk, AckTimeout: ackTimeout})})
	if err != nil {
		t.Fatal(err)
	}
	pvm, err := vm.New(vm.Config{Program: prog, Env: environ, Coordinator: primary})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	var elapsed time.Duration
	var done sync.WaitGroup
	done.Add(1)
	clk.Go(func() {
		defer done.Done()
		start := clk.Now()
		runErr = pvm.Run()
		elapsed = clk.Since(start)
	})
	clk.Detach()
	done.Wait()
	wg.Wait()
	return primary, environ, elapsed, runErr
}

// TestBackupLostDuringOutputCommit: the backup stops acknowledging right
// before an output commit. The primary must not hang on the pessimistic wait
// (the pre-AckTimeout behaviour): within AckTimeout it declares the backup
// lost, surfaces ErrBackupLost, and — critically for exactly-once — the
// uncommitted output is never performed, while already-committed outputs
// stay performed exactly once. On the virtual clock the detection latency is
// asserted exactly: the run takes at least AckTimeout and at most AckTimeout
// plus a little message latency, in simulated time.
func TestBackupLostDuringOutputCommit(t *testing.T) {
	const ackTimeout = 200 * time.Millisecond
	primary, environ, elapsed, runErr := runAgainstSilentBackup(t, 99, ackTimeout)

	if !errors.Is(runErr, ErrBackupLost) {
		t.Fatalf("run error = %v, want ErrBackupLost", runErr)
	}
	if elapsed < ackTimeout {
		t.Fatalf("primary gave up after %v of virtual time, before AckTimeout %v", elapsed, ackTimeout)
	}
	if elapsed > ackTimeout+50*time.Millisecond {
		t.Fatalf("primary took %v of virtual time to notice the dead backup (AckTimeout %v)", elapsed, ackTimeout)
	}
	if !primary.BackupLost() {
		t.Fatal("BackupLost() = false after ack timeout")
	}
	m := primary.Metrics()
	if m.AckTimeouts == 0 || !m.BackupLost {
		t.Fatalf("metrics = %+v, want AckTimeouts > 0 and BackupLost", m)
	}
	// Exactly-once across the loss: "start" was committed and performed
	// once; the output whose commit timed out must NOT have been performed
	// (a restarted pair would otherwise duplicate it).
	lines := environ.Console().Lines()
	if len(lines) != 1 || lines[0] != "start" {
		t.Fatalf("console = %q, want exactly [\"start\"]", lines)
	}
}

// TestMetricsRaceUnderHeartbeat is the -race regression test for the data
// race between heartbeatLoop (writing counters from its own goroutine) and
// Metrics() (read from any goroutine): a monitor goroutine hammers Metrics()
// while the VM runs with a fast heartbeat. Before the counters became
// atomic, `go test -race` flagged this pairing.
//
// This test deliberately stays on the real clock and real pipe: its whole
// point is to make genuinely concurrent wall-clock-timed goroutines collide
// so the race detector can observe unsynchronized access. Under the virtual
// clock, goroutines run one-at-a-time between parks, which would serialize
// exactly the interleavings the test exists to provoke.
func TestMetricsRaceUnderHeartbeat(t *testing.T) {
	prog := mustAssemble(t, faultProgram)
	environ := env.New(1234)
	pEnd, bEnd := transport.Pipe(4096)
	primary, err := NewPrimary(PrimaryConfig{
		Mode:       ModeLock,
		Backend:    pairOf(PairBackendConfig{Endpoint: pEnd, HeartbeatEvery: time.Millisecond}),
		Policy:     vm.NewSeededPolicy(77, 64, 512),
		FlushEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pvm, err := vm.New(vm.Config{Program: prog, Env: environ, Coordinator: primary})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: bEnd})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan ServeOutcome, 1)
	go func() {
		outcome, _ := backup.Serve()
		serveDone <- outcome
	}()

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = primary.Metrics()
			}
		}
	}()

	if err := pvm.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	close(stop)
	pollWG.Wait()
	if outcome := <-serveDone; outcome != OutcomePrimaryCompleted {
		t.Fatalf("outcome = %v", outcome)
	}
	m := primary.Metrics()
	if m.FramesSent == 0 || m.RecordsLogged == 0 {
		t.Fatalf("metrics empty after run: %+v", m)
	}
}
