package ftvm

// API-level exercises of the consensus coordination path: the same facade
// program and assertions as the pair tests, with Options.Backend flipped to
// BackendConsensus. Exactly-once across a leader+VM kill is the §3.4/§4
// guarantee restated for majority commit.

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/replication"
)

func TestRunReplicatedConsensusClean(t *testing.T) {
	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		prog, err := CompileSource("facade", facadeProgram)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunReplicated(prog, mode, Options{EnvSeed: 5, Backend: BackendConsensus})
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
		if len(res.Consensus) != 3 {
			t.Fatalf("%v: %d replica stats, want 3", mode, len(res.Consensus))
		}
		leaders, termed := 0, 0
		for _, s := range res.Consensus {
			if s.Role == consensus.Leader {
				leaders++
			}
			if s.Term > 0 {
				termed++
			}
		}
		if leaders != 1 {
			t.Fatalf("%v: %d leaders at completion, want 1", mode, leaders)
		}
		// The election quorum — leader plus at least one voter — has the
		// term; the last follower may lag on a wall clock.
		if termed < 2 {
			t.Fatalf("%v: only %d replicas saw a term, want quorum", mode, termed)
		}
	}
}

func TestRunWithFailoverConsensus(t *testing.T) {
	prog, err := CompileSource("facade", facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithFailover(prog, ModeLock, KillAfterRecords(40), Options{
		EnvSeed:    5,
		FlushEvery: 8,
		MinQuantum: 64,
		MaxQuantum: 256,
		Backend:    BackendConsensus,
		AckTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Log("primary finished before the kill fired (timing); still validating output")
	} else if res.Recovery == nil && res.Outcome != replication.OutcomePrimaryCompleted {
		t.Fatal("killed run produced no recovery report")
	}
	if got := res.Console[len(res.Console)-1]; got != "done 900" {
		t.Fatalf("console = %v", res.Console)
	}
	sent := res.Env.Messages().Sent()
	if len(sent) != 1 || sent[0] != "result:900" {
		t.Fatalf("sent = %v (exactly-once violated?)", sent)
	}
	data, err := res.Env.FileContents("out.dat")
	if err != nil || string(data) != "n=900" {
		t.Fatalf("file = %q (%v)", data, err)
	}
}

func TestMeasureReplayConsensus(t *testing.T) {
	prog, err := CompileSource("facade", facadeProgram)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() *env.Env { return env.New(5) }
	capture := filepath.Join(t.TempDir(), "replay.ftlog")
	primary, replay, err := MeasureReplay(prog, ModeLock, Options{Backend: BackendConsensus, CaptureLog: capture}, factory)
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
