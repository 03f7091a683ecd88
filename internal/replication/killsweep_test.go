package replication

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/transport"
	"repro/internal/vm"
)

// TestKillPointSweep is the failure-injection property test: for every
// replication mode and both backups, cold and warm, kill the primary at many
// different points in the run and verify the recovered execution always
// produces the same observable outputs as a failure-free reference
// (exactly-once, identical final state). This
// sweeps the crash through all protocol phases — before any output, between
// output commits, during lock-heavy phases, near completion.
func TestKillPointSweep(t *testing.T) {
	prog := mustAssemble(t, testProgram)
	seeds := sweepSeedsFromEnv(t)

	// Reference run (unreplicated, same env seed and primary policy seed):
	// the final sum adopts the primary's entropy stream, so it is the
	// ground truth for every recovered execution.
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
	wantFinal := canonicalize(refEnv.Console().Lines())

	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		for _, killAt := range []int{1, 5, 20, 80, 200, 800} {
			// The warm backup is one more input: the same backup, its log
			// replayed as it grows, killed on the same stored-record count.
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("%v/kill%d", mode, killAt)
				if warm {
					name += "/warm"
				}
				t.Run(name, func(t *testing.T) {
					environ := env.New(seeds.env)
					pa, pb := transport.Pipe(4096)
					primary, err := NewPrimary(PrimaryConfig{
						Mode:       mode,
						Backend:    pairOf(PairBackendConfig{Endpoint: pa}),
						Policy:     vm.NewSeededPolicy(seeds.policy, 64, 512),
						FlushEvery: 4, // tiny batches: expose mid-protocol kills
					})
					if err != nil {
						t.Fatal(err)
					}
					pvm, err := vm.New(vm.Config{
						Program: prog, Env: environ, Coordinator: primary,
						TrackProgress: mode == ModeSched,
					})
					if err != nil {
						t.Fatal(err)
					}
					backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: pb})
					if err != nil {
						t.Fatal(err)
					}
					rcfg := RecoverConfig{
						Program: prog,
						Env:     environ,
						Policy:  vm.NewSeededPolicy(seeds.recover, 100, 900),
					}
					done := make(chan struct{})
					var outcome ServeOutcome
					var warmErr error
					go func() {
						defer close(done)
						if !warm {
							outcome, _ = backup.Serve()
							return
						}
						var res *WarmResult
						if _, res, warmErr = backup.RunWarm(rcfg); res != nil {
							outcome = res.Outcome
						}
					}()
					go func() {
						for backup.Store().Len() < killAt {
							select {
							case <-done:
								return
							default:
								time.Sleep(50 * time.Microsecond)
							}
						}
						pvm.Kill()
					}()
					_ = pvm.Run()
					<-done
					if warmErr != nil {
						t.Fatalf("warm backup after %v: %v", outcome, warmErr)
					}

					if outcome == OutcomePrimaryCompleted {
						// The primary beat the kill trigger; output is complete
						// already — still must match the reference.
						if got := canonicalize(environ.Console().Lines()); got != wantFinal {
							t.Fatalf("completed run output mismatch:\n%s\nvs\n%s", got, wantFinal)
						}
						return
					}
					// The warm backup has finished the program already.
					if !warm {
						if _, _, err := backup.Recover(rcfg); err != nil {
							t.Fatalf("recover: %v", err)
						}
					}
					if got := canonicalize(environ.Console().Lines()); got != wantFinal {
						t.Fatalf("recovered output mismatch:\n%s\nvs\n%s", got, wantFinal)
					}
				})
			}
		}
	}
}

// canonicalize sorts console lines (cross-thread print order may legally
// differ between schedules under lock replication) and joins them.
func canonicalize(lines []string) string {
	cp := make([]string, len(lines))
	copy(cp, lines)
	sort.Strings(cp)
	return strings.Join(cp, "\n")
}
