package simtest

import (
	"sort"
	"strings"
	"testing"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/env"
	"repro/internal/fuzzgen"
	"repro/internal/replication"
	"repro/internal/vm"
)

// Takeover edge cases, played out on the simulated cluster where the crash
// position is exact (the Nth frame send, not a polled approximation):
//
//   - backup promoted mid-flush: the primary dies the instant a frame hits
//     the wire, before the ack returns — the backup holds the frame but the
//     flush never completed on the primary's side;
//   - takeover with an empty log tail: the primary dies before any frame
//     escapes, so recovery replays nothing and re-executes everything live;
//   - double takeover: a promoted backup's log supports a second promotion
//     (new environment) with the same observable output.

func takeoverProgram(t *testing.T) (*ftvm.Program, []string, Combo) {
	t.Helper()
	cb := Combo{ProgCombo: ProgCombo{ProgSeed: 3, Size: fuzzgen.SizeSmall, Mode: ftvm.ModeLock,
		NetSeed: 5, ReorderNum: 1, ReorderDen: 8}}
	ref := references{}.get(cb.ProgSeed, cb.Size)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	return ref.prog, ref.console, cb
}

func mustAgree(t *testing.T, ref, got []string, what string) {
	t.Helper()
	if detail, ok := fuzzgen.CompareFrames(ref, got); !ok {
		t.Fatalf("%s diverged from reference: %s", what, detail)
	}
}

// TestTakeoverEmptyLogTail: the crash lands mid-send of the very first frame,
// which is lost with the process. The backup is promoted with an empty log —
// the degenerate recovery where nothing is replayed, no outputs are skipped,
// and the whole program runs live under the backup's own policy.
func TestTakeoverEmptyLogTail(t *testing.T) {
	prog, ref, cb := takeoverProgram(t)
	cb.KillAtSend = 1 // first frame dies with the primary
	res, err := RunCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed || res.Recovery == nil {
		t.Fatalf("killed=%t recovered=%t, want both", res.Killed, res.Recovery != nil)
	}
	if res.Backup.RecordsLogged != 0 {
		t.Fatalf("backup logged %d records, want an empty log tail", res.Backup.RecordsLogged)
	}
	if res.Recovery.FedResults != 0 || res.Recovery.SkippedOutputs != 0 {
		t.Fatalf("empty-log recovery replayed something: %+v", res.Recovery)
	}
	mustAgree(t, ref, res.Console, "empty-log takeover output")
}

// TestTakeoverMidFlush: the primary dies at the exact instant a frame
// escapes onto the wire (KillDeliver), so the backup logs records whose flush
// the primary never saw acknowledged. The promotion must treat that tail as
// committed log — replaying it, then finishing live — and still produce the
// reference output exactly once.
func TestTakeoverMidFlush(t *testing.T) {
	prog, ref, cb := takeoverProgram(t)
	cb.KillAtSend = 3
	cb.KillDeliver = true // the fatal frame reaches the backup
	res, err := RunCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed || res.Recovery == nil {
		t.Fatalf("killed=%t recovered=%t, want both", res.Killed, res.Recovery != nil)
	}
	if res.Backup.RecordsLogged == 0 {
		t.Fatal("mid-flush kill delivered no records; the edge case was not exercised")
	}
	rep := res.Recovery
	if rep.FedResults+rep.Reinvoked+rep.GatedWakeups+rep.ReplayedSwitches == 0 {
		t.Fatalf("recovery replayed nothing from a %d-record log: %+v", res.Backup.RecordsLogged, rep)
	}
	mustAgree(t, ref, res.Console, "mid-flush takeover output")
}

// TestDoubleTakeover: after a first promotion completes, the same backup's
// log is used to promote again over a fresh environment (the second failover
// of a restarted chain). The log is immutable and recovery is a function of
// (log, environment), so the second takeover must reproduce the reference
// output as well — and see the identical log.
func TestDoubleTakeover(t *testing.T) {
	prog, ref, cb := takeoverProgram(t)
	cb.KillAtSend = 4
	res, err := RunCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("first takeover did not happen")
	}
	mustAgree(t, ref, res.Console, "first takeover output")

	envSeed, _, recoverSeed := deriveSeeds(cb.ProgSeed)
	env2 := env.New(envSeed)
	_, report2, err := res.Cold.Recover(replication.RecoverConfig{
		Program: prog,
		Env:     env2,
		Policy:  vm.NewSeededPolicy(recoverSeed^1, 100, 900),
	})
	if err != nil {
		t.Fatalf("second takeover: %v", err)
	}
	if report2.RecordsInLog != res.Recovery.RecordsInLog {
		t.Fatalf("log changed between takeovers: %d then %d records",
			res.Recovery.RecordsInLog, report2.RecordsInLog)
	}
	mustAgree(t, ref, env2.Console().Lines(), "second takeover output")
}

// TestClusterResultStable pins that a single combo's full result — console
// included — is identical across runs, which is what makes the failing-combo
// replay workflow trustworthy: the replay shows the same bytes the sweep saw.
func TestClusterResultStable(t *testing.T) {
	prog, _, cb := takeoverProgram(t)
	cb.KillAtSend = 3
	canon := func(r *cluster.Result) string {
		lines := append([]string(nil), r.Console...)
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	first, err := RunCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if first.Total != second.Total ||
		first.Backup.RecordsLogged != second.Backup.RecordsLogged ||
		canon(first) != canon(second) {
		t.Fatalf("same combo, different results:\n%+v\nvs\n%+v", first, second)
	}
}
