package replication

import (
	"testing"

	"repro/internal/env"
	"repro/internal/transport"
	"repro/internal/vm"
)

func TestIntervalReplicationFailover(t *testing.T) {
	_, lines, report := runPair(t, ModeLockInterval, testProgram, true)
	checkTestProgramOutput(t, lines)
	if report.FedResults == 0 {
		t.Error("expected logged native results to be fed during recovery")
	}
	if report.RecordsInLog == 0 {
		t.Error("expected a non-empty log")
	}
	// GatedWakeups is schedule-dependent at this kill point (the replay may
	// never need to hold a thread back); the kill-sweep test covers the
	// gating correctness across many failure points.
}

func TestIntervalCleanCompletion(t *testing.T) {
	_, lines, _ := runPair(t, ModeLockInterval, testProgram, false)
	checkTestProgramOutput(t, lines)
}

// TestIntervalCompressionRatio verifies the §6 claim: logical intervals
// shrink the lock log by orders of magnitude (the paper projected 56
// intervals instead of 700k acquisition records for mtrt).
func TestIntervalCompressionRatio(t *testing.T) {
	measure := func(mode Mode) (lockRecords uint64) {
		prog := mustAssemble(t, testProgram)
		environ := env.New(99)
		pa, pb := transport.Pipe(1024)
		primary, err := NewPrimary(PrimaryConfig{Mode: mode, Backend: pairOf(PairBackendConfig{Endpoint: pa}), Policy: vm.NewSeededPolicy(11, 64, 512)})
		if err != nil {
			t.Fatal(err)
		}
		pvm, err := vm.New(vm.Config{Program: prog, Env: environ, Coordinator: primary})
		if err != nil {
			t.Fatal(err)
		}
		backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: pb})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _, _ = backup.Serve() }()
		if err := pvm.Run(); err != nil {
			t.Fatal(err)
		}
		<-done
		return primary.Metrics().LockRecords
	}
	full := measure(ModeLock)
	compressed := measure(ModeLockInterval)
	if compressed == 0 || full == 0 {
		t.Fatalf("lock records: full=%d compressed=%d", full, compressed)
	}
	if compressed*4 > full {
		t.Fatalf("intervals should compress at least 4x: %d vs %d", compressed, full)
	}
	t.Logf("lock records: %d plain vs %d intervals (%.1fx compression)",
		full, compressed, float64(full)/float64(compressed))
}

// TestIntervalSingleThreaded: a single-threaded program is one interval per
// output-commit epoch — the degenerate case where interval mode removes the
// lock log almost entirely.
func TestIntervalSingleThreaded(t *testing.T) {
	src := `
class L d
static M.l
native print io.print 1 void
method main 0 void
  new L
  puts M.l
  iconst 0
  store 0
loop:
  load 0
  iconst 500
  icmp
  jz out
  gets M.l
  menter
  gets M.l
  mexit
  load 0
  iconst 1
  iadd
  store 0
  jmp loop
out:
  sconst "done"
  call print
  ret
end`
	prog := mustAssemble(t, src)
	environ := env.New(1)
	pa, pb := transport.Pipe(64)
	primary, err := NewPrimary(PrimaryConfig{Mode: ModeLockInterval, Backend: pairOf(PairBackendConfig{Endpoint: pa})})
	if err != nil {
		t.Fatal(err)
	}
	pvm, err := vm.New(vm.Config{Program: prog, Env: environ, Coordinator: primary})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{Mode: ModeLockInterval, Endpoint: pb})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _, _ = backup.Serve() }()
	if err := pvm.Run(); err != nil {
		t.Fatal(err)
	}
	<-done
	// 500 acquisitions + the $finish acquisition, but at most a couple of
	// interval records (one per output-commit epoch).
	if got := primary.Metrics().LockRecords; got > 4 {
		t.Fatalf("single-threaded interval records = %d, want <= 4", got)
	}
	if got := pvm.Stats().LocksAcquired; got < 500 {
		t.Fatalf("locks acquired = %d", got)
	}
}
