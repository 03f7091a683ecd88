package ftvm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/replication"
)

// TestWarmReplicatedClean: the warm backup executes alongside the primary to
// clean completion; outputs stay exactly-once and the backup's VM holds the
// full final program state.
func TestWarmReplicatedClean(t *testing.T) {
	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		prog, err := CompileSource("warm", facadeProgram)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWarmReplicated(prog, mode, nil, Options{EnvSeed: 5})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Outcome != replication.OutcomePrimaryCompleted {
			t.Fatalf("%v outcome = %v", mode, res.Outcome)
		}
		// Both primary and warm backup executed; the console line appears
		// exactly once (output dedup), and the file holds the final value.
		count := 0
		for _, l := range res.Console {
			if l == "done 900" {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("%v console = %v (done×%d, want exactly once)", mode, res.Console, count)
		}
		sent := res.Env.Messages().Sent()
		if len(sent) != 1 || sent[0] != "result:900" {
			t.Fatalf("%v sent = %v", mode, sent)
		}
		data, err := res.Env.FileContents("out.dat")
		if err != nil || string(data) != "n=900" {
			t.Fatalf("%v file = %q (%v)", mode, data, err)
		}
		if res.Warm == nil || res.Warm.Replay.VMStats.Instructions == 0 {
			t.Fatalf("%v: warm backup did not execute", mode)
		}
		t.Logf("%v: warm backup executed %d instructions concurrently, caught up: %v",
			mode, res.Warm.Replay.VMStats.Instructions, res.Warm.CaughtUpAtClose)
	}
}

// warmFailoverProgram is facadeProgram with ten times the work, so the kill
// trigger reliably lands mid-run on a single core.
const warmFailoverProgram = `
class Acc { n int; }
var acc Acc;
func worker(k int) {
	for (var i int = 0; i < 3000; i = i + 1) {
		lock (acc) { acc.n = acc.n + k; }
	}
}
func main() {
	acc = new Acc;
	var fd int = fopen("out.dat", 1);
	var a thread = spawn worker(1);
	var b thread = spawn worker(2);
	join(a);
	join(b);
	fwrite(fd, "n=" + itoa(acc.n));
	fclose(fd);
	send("result:" + itoa(acc.n));
	print("done " + itoa(acc.n));
}
`

// TestWarmReplicatedFailover: kill the primary mid-run; the warm backup,
// already executing, finishes the program.
func TestWarmReplicatedFailover(t *testing.T) {
	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		// Retry until the kill lands (fast programs can beat the trigger).
		landed := false
		for attempt := 0; attempt < 10 && !landed; attempt++ {
			prog, err := CompileSource("warm", warmFailoverProgram)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWarmReplicated(prog, mode, KillAfterRecords(30), Options{
				EnvSeed:    5,
				FlushEvery: 8,
				MinQuantum: 64,
				MaxQuantum: 256,
			})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if !res.Killed || res.Outcome != replication.OutcomePrimaryFailed {
				// The kill raced the primary's completion; try again.
				continue
			}
			landed = true
			count := 0
			for _, l := range res.Console {
				if l == "done 9000" {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("%v console = %v", mode, res.Console)
			}
			sent := res.Env.Messages().Sent()
			if len(sent) != 1 || sent[0] != "result:9000" {
				t.Fatalf("%v sent = %v", mode, sent)
			}
			data, err := res.Env.FileContents("out.dat")
			if err != nil || string(data) != "n=9000" {
				t.Fatalf("%v file = %q (%v)", mode, data, err)
			}
		}
		if !landed {
			t.Errorf("%v: kill never landed in 10 attempts", mode)
		}
	}
}

// TestWarmRejectsUnsupportedOptions: a warm run used to run a plain pair when
// asked for the consensus backend. It is refused by name now.
func TestWarmRejectsUnsupportedOptions(t *testing.T) {
	prog, err := CompileSource("warm", facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWarmReplicated(prog, ModeLock, nil, Options{Backend: BackendConsensus})
	if res != nil || !errors.Is(err, ErrWarmOption) {
		t.Errorf("BackendConsensus: result %v, error %v; want nil and ErrWarmOption", res, err)
	}
}

// TestWarmCaptureMatchesCold: a warm backup keeps its log as a cold one
// does, so a warm run captures, and the capture is the cold run's byte for
// byte.
func TestWarmCaptureMatchesCold(t *testing.T) {
	prog, err := CompileSource("warm", facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		dir := t.TempDir()
		cold, warm := filepath.Join(dir, "cold.ftlog"), filepath.Join(dir, "warm.ftlog")
		if _, err := RunReplicated(prog, mode, Options{EnvSeed: 5, CaptureLog: cold}); err != nil {
			t.Fatalf("%v cold: %v", mode, err)
		}
		if _, err := RunWarmReplicated(prog, mode, nil, Options{EnvSeed: 5, CaptureLog: warm}); err != nil {
			t.Fatalf("%v warm: %v", mode, err)
		}
		cb, err := os.ReadFile(cold)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := os.ReadFile(warm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cb, wb) {
			t.Errorf("%v: warm capture (%d bytes) differs from cold (%d bytes)", mode, len(wb), len(cb))
		}
	}
}
