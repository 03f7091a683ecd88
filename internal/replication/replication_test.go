package replication

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/transport"
	"repro/internal/vm"
)

// testProgram is a multi-threaded workload exercising monitors, natives
// (clock, rand, print), and shared state: two workers each add seeded
// pseudo-random values into a shared accumulator under a lock; main prints
// progress markers and the final sum mixed with a clock reading parity.
const testProgram = `
static Main.sum
static Main.lock
static Main.randvals
class Lock dummy
native print io.print 1 void
native clock sys.clock 0 value
native rand sys.rand 0 value
method worker 1 void
  iconst 0
  store 1
loop:
  load 1
  iconst 200
  icmp
  jz done
  call rand
  store 2
  gets Main.lock
  menter
  gets Main.sum
  load 2
  iconst 1000
  irem
  iadd
  puts Main.sum
  gets Main.randvals
  iconst 1
  iadd
  puts Main.randvals
  gets Main.lock
  mexit
  load 1
  iconst 1
  iadd
  store 1
  jmp loop
done:
  ret
end
method main 0 void
  new Lock
  puts Main.lock
  iconst 0
  puts Main.sum
  iconst 0
  puts Main.randvals
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
  call clock
  iconst 2
  irem
  iadd
  i2s
  sconst "sum="
  swap
  scat
  call print
  gets Main.randvals
  i2s
  sconst "ops="
  swap
  scat
  call print
  ret
end
`

func mustAssemble(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := bytecode.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// runPair runs the program replicated in the given mode; if killAfter > 0,
// the primary is killed once its VM has executed at least that many
// instructions (approximated by a watcher goroutine), and the backup
// recovers. It returns the environment (shared) and the final console lines.
func runPair(t *testing.T, mode Mode, src string, kill bool) (*env.Env, []string, *RecoveryReport) {
	t.Helper()
	// The kill watcher races the (fast) program on a single core; retry
	// until a run is actually interrupted mid-flight.
	for attempt := 0; ; attempt++ {
		environ, lines, report, landed := runPairOnce(t, mode, src, kill)
		if !kill || landed || attempt >= 10 {
			if kill && !landed {
				t.Fatalf("kill never landed in %d attempts", attempt+1)
			}
			return environ, lines, report
		}
	}
}

// fuseEndpoint fires a callback after n frames have been sent — a
// deterministic way to kill the primary mid-protocol from its own goroutine.
type fuseEndpoint struct {
	transport.Endpoint
	n    int
	fire func()
}

func (f *fuseEndpoint) Send(b []byte) error {
	if f.n > 0 {
		f.n--
		if f.n == 0 {
			f.fire()
		}
	}
	return f.Endpoint.Send(b)
}

func runPairOnce(t *testing.T, mode Mode, src string, kill bool) (*env.Env, []string, *RecoveryReport, bool) {
	t.Helper()
	prog := mustAssemble(t, src)
	environ := env.New(99)
	pa, pb := transport.Pipe(1024)

	var pvm *vm.VM
	var primaryEnd transport.Endpoint = pa
	if kill {
		// The primary dies deterministically after its third log frame.
		primaryEnd = &fuseEndpoint{Endpoint: pa, n: 3, fire: func() { pvm.Kill() }}
	}
	primary, err := NewPrimary(PrimaryConfig{
		Mode:       mode,
		Backend:    pairOf(PairBackendConfig{Endpoint: primaryEnd}),
		Policy:     vm.NewSeededPolicy(11, 64, 512),
		FlushEvery: 16, // small batches so the kill lands mid-run
	})
	if err != nil {
		t.Fatalf("new primary: %v", err)
	}
	pvm, err = vm.New(vm.Config{
		Program: prog, Env: environ, Coordinator: primary,
		MaxInstructions: 50_000_000, TrackProgress: mode == ModeSched,
	})
	if err != nil {
		t.Fatalf("primary vm: %v", err)
	}
	backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: pb})
	if err != nil {
		t.Fatalf("new backup: %v", err)
	}

	serveDone := make(chan struct{})
	var outcome ServeOutcome
	var serveErr error
	go func() {
		defer close(serveDone)
		outcome, serveErr = backup.Serve()
	}()

	runErr := pvm.Run()
	if !kill && runErr != nil {
		t.Fatalf("primary run: %v", runErr)
	}
	<-serveDone
	if serveErr != nil {
		t.Fatalf("backup serve: %v", serveErr)
	}

	if !kill {
		if outcome != OutcomePrimaryCompleted {
			t.Fatalf("outcome = %v, want completed", outcome)
		}
		return environ, environ.Console().Lines(), nil, false
	}
	if outcome == OutcomePrimaryCompleted {
		// The primary beat the kill watcher; the caller retries.
		return environ, environ.Console().Lines(), nil, false
	}
	if outcome != OutcomePrimaryFailed {
		t.Fatalf("outcome = %v, want failed", outcome)
	}
	_, report, err := backup.Recover(RecoverConfig{
		Program:         prog,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(9999, 48, 700), // deliberately different
		MaxInstructions: 50_000_000,
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return environ, environ.Console().Lines(), report, true
}

// referenceRun executes the program unreplicated and returns the console
// output with non-deterministic parts normalised away by the program itself.
func TestLockReplicationFailover(t *testing.T) {
	_, lines, report := runPair(t, ModeLock, testProgram, true)
	checkTestProgramOutput(t, lines)
	if report.FedResults == 0 {
		t.Error("expected logged native results to be fed during recovery")
	}
	if report.GatedWakeups == 0 {
		t.Error("expected lock-replay gating to admit threads")
	}
}

func TestSchedReplicationFailover(t *testing.T) {
	_, lines, report := runPair(t, ModeSched, testProgram, true)
	checkTestProgramOutput(t, lines)
	if report.FedResults == 0 {
		t.Error("expected logged native results to be fed during recovery")
	}
	if report.ReplayedSwitches == 0 {
		t.Error("expected scheduling records to be replayed")
	}
}

func TestCleanCompletionNoRecovery(t *testing.T) {
	for _, mode := range []Mode{ModeLock, ModeSched} {
		prog := mustAssemble(t, testProgram)
		environ := env.New(99)
		pa, pb := transport.Pipe(1) // tiny buffer: forces real interleaving so kills land
		primary, err := NewPrimary(PrimaryConfig{Mode: mode, Backend: pairOf(PairBackendConfig{Endpoint: pa}), Policy: vm.NewSeededPolicy(5, 64, 512)})
		if err != nil {
			t.Fatalf("new primary: %v", err)
		}
		pvm, err := vm.New(vm.Config{Program: prog, Env: environ, Coordinator: primary})
		if err != nil {
			t.Fatalf("primary vm: %v", err)
		}
		backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: pb})
		if err != nil {
			t.Fatalf("new backup: %v", err)
		}
		done := make(chan struct{})
		var outcome ServeOutcome
		go func() { defer close(done); outcome, _ = backup.Serve() }()
		if err := pvm.Run(); err != nil {
			t.Fatalf("primary run (%v): %v", mode, err)
		}
		<-done
		if outcome != OutcomePrimaryCompleted {
			t.Fatalf("mode %v outcome = %v, want completed", mode, outcome)
		}
		if _, _, err := backup.Recover(RecoverConfig{Program: prog, Env: environ}); !errors.Is(err, ErrNoRecoveryNeeded) {
			t.Fatalf("mode %v recover err = %v, want ErrNoRecoveryNeeded", mode, err)
		}
		checkTestProgramOutput(t, environ.Console().Lines())
	}
}

// checkTestProgramOutput verifies exactly-once output and a correct final
// state regardless of interleaving: "start" exactly once, ops=400 exactly
// once, and exactly one sum= line.
func checkTestProgramOutput(t *testing.T, lines []string) {
	t.Helper()
	var starts, sums, ops int
	for _, l := range lines {
		switch {
		case l == "start":
			starts++
		case strings.HasPrefix(l, "sum="):
			sums++
		case l == "ops=400":
			ops++
		}
	}
	if starts != 1 || sums != 1 || ops != 1 {
		t.Fatalf("console %q: start×%d sum×%d ops400×%d, want 1/1/1", lines, starts, sums, ops)
	}
}

func TestLockModeSumMatchesLoggedRandoms(t *testing.T) {
	// Under lock replication the backup must adopt the primary's logged
	// sys.rand results: run the same program twice with the same env seed
	// but different primary schedules; the ops count is always 400 and the
	// sum is whatever the primary's logged randoms dictate. Here we check
	// the recovered sum matches a reference run with the same env seed and
	// the same primary policy seed (log feeding ⇒ identical randoms).
	prog := mustAssemble(t, testProgram)

	// Reference: unreplicated run with the same env entropy.
	refEnv := env.New(99)
	refVM, err := vm.New(vm.Config{
		Program:     prog,
		Env:         refEnv,
		Coordinator: vm.NewDefaultCoordinator(vm.NewSeededPolicy(11, 64, 512)),
	})
	if err != nil {
		t.Fatalf("ref vm: %v", err)
	}
	if err := refVM.Run(); err != nil {
		t.Fatalf("ref run: %v", err)
	}
	refSum := extractSum(t, refEnv.Console().Lines())

	_, lines, _ := runPair(t, ModeLock, testProgram, true)
	gotSum := extractSum(t, lines)
	// The sum line mixes in a clock parity; both runs drew the same env
	// entropy sequence for rand but clock draws differ in count... they do
	// not: the program calls clock exactly once. Entropy and clock use
	// separate streams, so sums must match exactly.
	if gotSum != refSum {
		t.Fatalf("recovered sum %q != reference %q", gotSum, refSum)
	}
}

func extractSum(t *testing.T, lines []string) string {
	t.Helper()
	for _, l := range lines {
		if strings.HasPrefix(l, "sum=") {
			return l
		}
	}
	t.Fatalf("no sum line in %q", lines)
	return ""
}

func TestNonDeterministicSigsCatalog(t *testing.T) {
	reg := native.StdLib()
	sigs := reg.NonDeterministicSigs()
	if len(sigs) == 0 || len(sigs) >= 100 {
		t.Fatalf("non-deterministic natives = %d, want (0,100) as in the paper", len(sigs))
	}
	for _, want := range []string{"sys.clock", "sys.rand", "chan.recv", "fs.open"} {
		found := false
		for _, s := range sigs {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from non-deterministic catalog %v", want, sigs)
		}
	}
}

func TestHandlersRegister(t *testing.T) {
	if err := sehandler.DefaultSet().RegisterAll(native.StdLib()); err != nil {
		t.Fatalf("register handlers: %v", err)
	}
}
