package ftvm

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/replication"
)

const facadeProgram = `
class Acc { n int; }
var acc Acc;
func worker(k int) {
	for (var i int = 0; i < 300; i = i + 1) {
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

func TestCompileAndRun(t *testing.T) {
	prog, err := CompileSource("facade", facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Options{EnvSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Console) != 1 || res.Console[0] != "done 900" {
		t.Fatalf("console = %v", res.Console)
	}
	if res.Stats.LocksAcquired < 600 {
		t.Fatalf("locks = %d", res.Stats.LocksAcquired)
	}
	data, err := res.Env.FileContents("out.dat")
	if err != nil || string(data) != "n=900" {
		t.Fatalf("file = %q (%v)", data, err)
	}
}

func TestRunReplicatedCleanBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeLock, ModeSched} {
		prog, err := CompileSource("facade", facadeProgram)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunReplicated(prog, mode, Options{EnvSeed: 5})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Outcome != replication.OutcomePrimaryCompleted {
			t.Fatalf("%v outcome = %v", mode, res.Outcome)
		}
		if res.Primary.RecordsLogged == 0 || res.Backup.RecordsLogged == 0 {
			t.Fatalf("%v: nothing logged (%d/%d)", mode, res.Primary.RecordsLogged, res.Backup.RecordsLogged)
		}
		if res.Console[len(res.Console)-1] != "done 900" {
			t.Fatalf("%v console = %v", mode, res.Console)
		}
	}
}

func TestRunWithFailoverBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeLock, ModeSched} {
		prog, err := CompileSource("facade", facadeProgram)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWithFailover(prog, mode, KillAfterRecords(40), Options{
			EnvSeed:    5,
			FlushEvery: 8,
			MinQuantum: 64,
			MaxQuantum: 256,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Killed {
			t.Logf("%v: primary finished before the kill fired (timing); still validating output", mode)
		}
		if got := res.Console[len(res.Console)-1]; got != "done 900" {
			t.Fatalf("%v console = %v", mode, res.Console)
		}
		sent := res.Env.Messages().Sent()
		if len(sent) != 1 || sent[0] != "result:900" {
			t.Fatalf("%v sent = %v (exactly-once violated?)", mode, sent)
		}
		data, err := res.Env.FileContents("out.dat")
		if err != nil || string(data) != "n=900" {
			t.Fatalf("%v file = %q (%v)", mode, data, err)
		}
	}
}

func TestMeasureReplay(t *testing.T) {
	prog, err := CompileSource("facade", facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() *env.Env { return env.New(5) }
	capture := filepath.Join(t.TempDir(), "replay.ftlog")
	// CaptureLog was dropped by the pair path's own copy of the run body
	// before there was one run body.
	primary, replay, err := MeasureReplay(prog, ModeLock, Options{CaptureLog: capture}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if primary.Outcome != replication.OutcomePrimaryCompleted {
		t.Fatalf("outcome = %v", primary.Outcome)
	}
	if replay.Report == nil || replay.Report.RecordsInLog == 0 {
		t.Fatalf("replay = %+v", replay)
	}
	if replay.Elapsed <= 0 {
		t.Fatal("no replay timing")
	}
	checkCapture(t, capture, ModeLock, replay.Report.RecordsInLog)
}

// checkCapture requires path to hold a decodable capture of a mode run with
// the given number of replayable records.
func checkCapture(t *testing.T, path string, mode Mode, records int) {
	t.Helper()
	l, err := replication.ReadLogFile(path)
	if err != nil {
		t.Fatalf("capture not decodable: %v", err)
	}
	if l.Header.Mode != mode || len(l.Records) != records {
		t.Fatalf("capture holds mode %v, %d records; want %v, %d", l.Header.Mode, len(l.Records), mode, records)
	}
}

func TestAssembleDisassembleFacade(t *testing.T) {
	prog, err := Assemble("method main 0 void\n  iconst 1\n  pop\n  ret\nend")
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(prog)
	if !strings.Contains(text, "iconst 1") {
		t.Fatalf("disassembly: %s", text)
	}
	var sb strings.Builder
	if err := EncodeProgram(&sb, prog); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Methods) != len(prog.Methods) {
		t.Fatal("binary round trip changed methods")
	}
}

func TestNativesAndHandlersExposed(t *testing.T) {
	if len(Natives().NonDeterministicSigs()) == 0 {
		t.Fatal("no nondeterministic natives")
	}
	if err := Handlers().RegisterAll(Natives()); err != nil {
		t.Fatal(err)
	}
}
