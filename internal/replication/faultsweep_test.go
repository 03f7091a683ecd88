package replication

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/transport"
	"repro/internal/vm"
)

// faultProgram is the channel-fault workload: like testProgram it spawns two
// workers that contend on a monitor and draw from the non-deterministic rand
// native (so lock-acquisition records AND native-result records flow over the
// channel), but every observable output is a pure function of the program
// text — the rand values are drawn and discarded, and the accumulator adds a
// constant. That makes the reference output valid for *any* surviving log
// prefix: however much of the run the backup replays versus re-executes live
// (with fresh entropy), the console must come out identical. The kill-sweep's
// program cannot give that guarantee, because its final sum adopts whatever
// entropy the primary consumed past the last logged record.
const faultProgram = `
static Main.sum
static Main.lock
class Lock dummy
native print io.print 1 void
native rand sys.rand 0 value
method worker 1 void
  iconst 0
  store 1
loop:
  load 1
  iconst 150
  icmp
  jz done
  call rand
  store 2
  gets Main.lock
  menter
  gets Main.sum
  iconst 3
  iadd
  puts Main.sum
  gets Main.lock
  mexit
  load 1
  iconst 1
  iadd
  store 1
  jmp loop
done:
  load 0
  i2s
  sconst "done-"
  swap
  scat
  call print
  ret
end
method main 0 void
  new Lock
  puts Main.lock
  iconst 0
  puts Main.sum
  sconst "start"
  call print
  iconst 1
  spawn worker 1
  store 0
  iconst 2
  spawn worker 1
  store 1
  load 0
  join
  load 1
  join
  gets Main.sum
  i2s
  sconst "sum="
  swap
  scat
  call print
  ret
end
`

// TestChannelFaultSweep is the channel-failure property test, complementing
// TestKillPointSweep (which crashes the *process*): here the process is
// healthy and the *channel* misbehaves — frames dropped, duplicated, delayed,
// truncated mid-write, the transport closed under either side, or a one-way
// partition in each direction — at several protocol positions, in every
// replication mode. The invariant is the paper's: whatever the channel does,
// either the pair completes with the reference output, or both sides detect
// the failure in bounded time and the backup's recovery reproduces the
// reference output exactly once.
func TestChannelFaultSweep(t *testing.T) {
	prog := mustAssemble(t, faultProgram)
	seeds := sweepSeedsFromEnv(t)

	// Failure-free reference run.
	refEnv := env.New(seeds.env)
	refVM, err := vm.New(vm.Config{
		Program:     prog,
		Env:         refEnv,
		Coordinator: vm.NewDefaultCoordinator(vm.NewSeededPolicy(seeds.policy, 64, 512)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := refVM.Run(); err != nil {
		t.Fatal(err)
	}
	want := canonicalize(refEnv.Console().Lines())
	if len(refEnv.Console().Lines()) != 4 {
		t.Fatalf("reference output = %q, want 4 lines", refEnv.Console().Lines())
	}

	type faultCase struct {
		kind transport.FaultKind
		at   int
	}
	var cases []faultCase
	// Send-side faults, positioned by frame count: early (first batches),
	// mid lock-heavy phase, and deep into the run.
	for _, k := range []transport.FaultKind{
		transport.FaultDropSend, transport.FaultDuplicateSend, transport.FaultDelaySend,
		transport.FaultPartialSend, transport.FaultCloseAtSend, transport.FaultPartitionSend,
	} {
		for _, at := range []int{2, 9, 33} {
			cases = append(cases, faultCase{k, at})
		}
	}
	// Recv-side faults, positioned by ack count: the primary only receives
	// during output commits, of which this program has a handful.
	for _, k := range []transport.FaultKind{transport.FaultCloseAtRecv, transport.FaultPartitionRecv} {
		for _, at := range []int{1, 2, 4} {
			cases = append(cases, faultCase{k, at})
		}
	}

	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		for _, fc := range cases {
			// Both backups sit behind the same receive loop; the warm one is
			// the second column of the table.
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v@%d", mode, fc.kind, fc.at)
				if warm {
					name += "/warm"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					environ := env.New(seeds.env)
					pa, pb := transport.Pipe(4096)
					faulty := transport.NewFaulty(pa, transport.FaultPlan{Kind: fc.kind, At: fc.at}, seeds.faulty)
					primary, err := NewPrimary(PrimaryConfig{
						Mode:       mode,
						Endpoint:   faulty,
						Policy:     vm.NewSeededPolicy(seeds.policy, 64, 512),
						FlushEvery: 4, // tiny batches: many frames, mid-protocol faults
						AckTimeout: 150 * time.Millisecond,
					})
					if err != nil {
						t.Fatal(err)
					}
					pvm, err := primary.NewVM(vm.Config{Program: prog, Env: environ})
					if err != nil {
						t.Fatal(err)
					}
					bcfg := BackupConfig{Mode: mode, Endpoint: pb, FailureTimeout: 150 * time.Millisecond}
					// The recovery runs under a deliberately different
					// scheduling policy.
					rcfg := RecoverConfig{Program: prog, Env: environ, Policy: vm.NewSeededPolicy(seeds.recover, 100, 900)}
					done := make(chan struct{})
					var outcome ServeOutcome
					var backup *Backup
					var warmErr error
					if warm {
						// The warm backup serves and executes in one call: it is
						// already running when the channel fails, and goes on.
						wb, err := NewWarmBackup(bcfg)
						if err != nil {
							t.Fatal(err)
						}
						go func() {
							defer close(done)
							var res *WarmResult
							if _, res, warmErr = wb.Run(rcfg); res != nil {
								outcome = res.Outcome
							}
						}()
					} else {
						if backup, err = NewBackup(bcfg); err != nil {
							t.Fatal(err)
						}
						go func() {
							defer close(done)
							outcome, _ = backup.Serve()
							if outcome.Failed() {
								// A real failover tears the channel down; this
								// also unblocks a primary still waiting on an
								// ack.
								_ = pb.Close()
							}
						}()
					}
					start := time.Now()
					runErr := pvm.Run()
					<-done
					// Two-sided detection must bound every wait: with 150ms
					// timeouts on both sides nothing may take seconds.
					if el := time.Since(start); el > 5*time.Second {
						t.Fatalf("pair took %v; failure detection did not bound the wait", el)
					}
					if warmErr != nil {
						t.Fatalf("warm backup after %v: %v", outcome, warmErr)
					}

					if outcome == OutcomePrimaryCompleted {
						// The injected fault can eat the ack of the frame that
						// carried the halt marker, so the backup sees a clean
						// halt while the primary reports the backup lost. The
						// console is complete on both sides (the marker ships
						// after every output commit), so only *other* primary
						// errors are failures here.
						if runErr != nil && !errors.Is(runErr, ErrBackupLost) {
							t.Fatalf("backup saw clean halt but primary failed: %v", runErr)
						}
						if got := canonicalize(environ.Console().Lines()); got != want {
							t.Fatalf("completed-run output mismatch:\n%s\nvs want\n%s", got, want)
						}
						return
					}
					// The channel fault surfaced as a primary failure (closure,
					// gap, corruption, or silence): the cold backup recovers; the
					// warm one has finished the program already.
					if !warm {
						if _, _, err := backup.Recover(rcfg); err != nil {
							t.Fatalf("recover after %v: %v", outcome, err)
						}
					}
					if got := canonicalize(environ.Console().Lines()); got != want {
						t.Fatalf("recovered output mismatch after %v:\n%s\nvs want\n%s", outcome, got, want)
					}
				})
			}
		}
	}
}
