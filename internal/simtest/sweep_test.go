package simtest

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/fleet/loadgen"
	"repro/internal/fuzzgen"
)

func seeds(from, n uint64) (out []uint64) {
	for i := uint64(0); i < n; i++ {
		out = append(out, from+i)
	}
	return out
}

// smokeSweeps are the four kinds at the size their `make *-smoke` target
// sweeps (ftvm-sim's defaults with that target's -progs/-nets).
var smokeSweeps = []SweepConfig{
	{Kind: KindPair, Seeds: seeds(1, 4), NetSeeds: []int64{1, 2}},
	{Kind: KindView, Seeds: seeds(1, 2), NetSeeds: []int64{1}},
	{Kind: KindFleet, Seeds: seeds(1, 2), Clients: 1000},
	{Kind: KindConsensus, Seeds: seeds(1, 2), NetSeeds: []int64{1}},
}

// contestedConsensus is one program, early kills, and election seed 7, which
// makes two replicas campaign at once.
var contestedConsensus = SweepConfig{Kind: KindConsensus, Seeds: []uint64{3}, Kills: []int{2, 5}, ESeeds: []uint64{1, 7}}

// TestSweepTraceDeterminism is the harness's core promise, for all four
// kinds: the same sweep configuration produces a byte-identical trace on
// every run — outcomes, record counts, and simulated timestamps included —
// and no schedule fails. Any wall-clock leak into the schedule (a real timer
// racing a virtual one, an unseeded draw, two actors running at once) shows
// up here as a diff.
func TestSweepTraceDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SweepConfig
	}{
		{"pair", smokeSweeps[KindPair]},
		{"view", smokeSweeps[KindView]},
		{"fleet", smokeSweeps[KindFleet]},
		{"consensus", smokeSweeps[KindConsensus]},
		{"consensus-contested", contestedConsensus},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := RunSweep(tc.cfg, nil), RunSweep(tc.cfg, nil)
			if first.Combos == 0 {
				t.Fatal("empty sweep")
			}
			for _, f := range append(first.Failures, second.Failures...) {
				t.Errorf("combo failed: %s\nreplay: %s", f.TraceLine(), f.ReplayCommand())
			}
			for i := range first.Trace {
				if a, b := first.Trace[i], second.Trace[i]; a != b {
					t.Errorf("trace line %d differs between two runs:\n  %s\n  %s", i, a, b)
				}
			}
			t.Logf("%d combos, trace stable, %v wall", first.Combos, first.Elapsed.Round(time.Millisecond))
		})
	}
}

// TestSweepBroad runs the full default pair schedule space — kill points ×
// channel faults × modes × network seeds over several generated programs,
// more than 200 combos — and requires every schedule to reproduce the
// reference output. The whole sweep must finish far inside a minute of wall
// time: that budget is the point of simulating, so it is asserted, not hoped
// for.
func TestSweepBroad(t *testing.T) {
	cfg := smokeSweeps[KindPair]
	if n := len(cfg.Scenarios()); n < 200 {
		t.Fatalf("default sweep enumerates only %d combos, want >= 200", n)
	}
	res := RunSweep(cfg, nil)
	for _, f := range res.Failures {
		t.Errorf("combo failed: %s\nreplay: %s", f.TraceLine(), f.ReplayCommand())
	}
	if res.Elapsed > 60*time.Second {
		t.Fatalf("sweep of %d combos took %v wall time, want < 60s", res.Combos, res.Elapsed)
	}
	t.Logf("%d combos in %v wall", res.Combos, res.Elapsed.Round(time.Millisecond))
}

// TestSweepAxes pins that the axes a caller may vary reach the schedules:
// narrowed modes and kill positions for the pair, both kill stages for the
// view cluster, contested elections (eseed 7: simultaneous candidacies) for
// consensus — and every such schedule holds.
func TestSweepAxes(t *testing.T) {
	two := []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched}
	for _, tc := range []struct {
		cfg  SweepConfig
		want []string // each must appear in some key
		n    int
	}{
		{SweepConfig{Kind: KindPair, Seeds: []uint64{1, 2}, Size: fuzzgen.SizeSmall, Modes: two, Kills: []int{1, 4}, NetSeeds: []int64{3}},
			[]string{"kill=4,deliver=1", "net=3"}, 2 * 2 * 7},
		{SweepConfig{Kind: KindView, Seeds: []uint64{3}, Modes: two, Kills: []int{3}, Kills2: []int{1, 6}, NetSeeds: []int64{5}},
			[]string{"kill1=3,d1=0,kill2=6,d2=0", "net=5"}, 2 * 7},
		{contestedConsensus, []string{"eseed=7", "who=leader,kill=5,deliver=1"}, 3 * 2 * 10},
	} {
		t.Run(tc.cfg.Kind.String(), func(t *testing.T) {
			res := RunSweep(tc.cfg, nil)
			if res.Combos != tc.n {
				t.Errorf("%d combos, want %d", res.Combos, tc.n)
			}
			for _, f := range res.Failures {
				t.Errorf("combo failed: %s\nreplay: %s", f.TraceLine(), f.ReplayCommand())
			}
			trace := strings.Join(res.Trace, "\n")
			for _, w := range tc.want {
				if !strings.Contains(trace, w) {
					t.Errorf("no schedule carries %q", w)
				}
			}
			if strings.Contains(trace, "mode=lockint") != (tc.cfg.Modes == nil) {
				t.Errorf("Modes axis not honoured")
			}
		})
	}
}

// TestRunConsensusSweep checks that the consensus schedule classes actually
// fired: leader kills recovered from the committed prefix and stale
// injections were rejected.
func TestRunConsensusSweep(t *testing.T) {
	res := RunSweep(SweepConfig{Kind: KindConsensus, Seeds: []uint64{1, 2}, Kills: []int{2, 5}}, nil)
	for _, f := range res.Failures {
		t.Errorf("FAIL %s\n  replay: %s", f.TraceLine(), f.ReplayCommand())
	}
	var leaderKills, recoveries, staleSeen int
	for _, line := range res.Trace {
		if strings.Contains(line, "who=leader") && !strings.Contains(line, "kill=0,") {
			leaderKills++
			if strings.Contains(line, "recovered=true") {
				recoveries++
			}
		}
		if strings.Contains(line, "inject=1") && !strings.Contains(line, "stale=0 ") {
			staleSeen++
		}
	}
	if leaderKills == 0 || recoveries == 0 {
		t.Fatalf("sweep never exercised leader-kill recovery (%d kills, %d recoveries)", leaderKills, recoveries)
	}
	if staleSeen == 0 {
		t.Fatal("sweep never counted a rejected stale-term frame")
	}
}

// TestConsensusFollowerKillKeepsMajority pins the follower-kill contract
// directly: the run completes without recovery, on the leader's term,
// through the surviving majority.
func TestConsensusFollowerKillKeepsMajority(t *testing.T) {
	out := Run(&ConsensusCombo{
		ProgCombo:  ProgCombo{ProgSeed: 2, Mode: ftvm.ModeLock, NetSeed: 1, ReorderNum: 1, ReorderDen: 8},
		KillAtSend: 3, // follower's 3rd protocol send
		ESeed:      1,
	})
	if out.Failed() {
		t.Fatalf("follower kill diverged: %s", out.TraceLine())
	}
	r := out.Result.(*cluster.Result)
	if r.Killed || r.Recovery != nil {
		t.Fatalf("follower kill must not kill the VM or force recovery: %+v", r)
	}
	if r.FinalTerm != 1 || r.FinalLeader != r.FirstLeader {
		t.Fatalf("leadership moved on a follower kill: term %d, leader %d->%d",
			r.FinalTerm, r.FirstLeader, r.FinalLeader)
	}
}

// sweepTraceGolden runs the sweep `ftvm-sim -progs 4 -nets 2` runs for kind
// and requires the trace file it would write to hash to want. Unlike
// TestSweepTraceDeterminism, which compares a run with itself, each hash was
// computed at the parent of the commit that added its test, so "byte-identical
// traces" across a commit is a test and not a sentence in CHANGES.md.
func sweepTraceGolden(t *testing.T, kind Kind, lines int, want string) {
	t.Helper()
	res := RunSweep(SweepConfig{Kind: kind, Seeds: seeds(1, 4), NetSeeds: []int64{1, 2}, Clients: 1000}, nil)
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(res.Trace, "\n")+"\n")))
	if got != want || len(res.Trace) != lines || len(res.Failures) > 0 {
		t.Fatalf("default %s sweep: trace sha256 %s (%d lines, %d failures), want %s (%d lines)",
			kind, got, len(res.Trace), len(res.Failures), want, lines)
	}
}

// TestFleetSweepTraceGolden pins the trace file the default `ftvm-sim -fleet
// -trace` writes (4 seeds, 1000 clients: 52 combos): a change to what the
// fleet does — a frame, a cost, a counter — fails here.
func TestFleetSweepTraceGolden(t *testing.T) {
	sweepTraceGolden(t, KindFleet, 52, "8b8cc1dba8c1a160774c9ec668aa1bd00b8b1f097d756c67a60b82ec129dbe3e")
}

// TestFleetQuorumSweep runs the default fleet schedule space — kill × fault ×
// inject, 52 combos — with every shard seating a witness (backend=quorum in
// the key): witness placement, in-place conversion, max-log promotion and
// per-link catch-up under the same model check as the pair, and run-to-run
// identical.
func TestFleetQuorumSweep(t *testing.T) {
	cfg := SweepConfig{Kind: KindFleet, Seeds: seeds(1, 4), Clients: 1000}
	run := func() (trace []string) {
		for _, sc := range cfg.Scenarios() {
			sc.(*FleetCombo).Backend = fleet.BackendQuorum
			out := Run(sc)
			if out.Failed() {
				t.Errorf("combo failed: %s\nreplay: %s", out.TraceLine(), out.ReplayCommand())
			}
			trace = append(trace, out.TraceLine())
		}
		return trace
	}
	first, second := run(), run()
	if len(first) != 52 || !strings.Contains(first[0], ",backend=quorum -> ") {
		t.Fatalf("%d combos, first %q; want 52 quorum keys", len(first), first[0])
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("trace line %d differs between two runs:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}

// TestPairSweepTraceGolden pins the default `ftvm-sim -trace` sweep: record
// counts, verdicts and simulated timestamps of 216 pair schedules.
func TestPairSweepTraceGolden(t *testing.T) {
	sweepTraceGolden(t, KindPair, 216, "156a892a592ec5bcdc828c24e0310f4205b858ea4fe1a8f05189c9531c0d6bb1")
}

// TestConsensusSweepTraceGolden pins the default `ftvm-sim -consensus -trace`
// sweep (288 schedules over the 3-replica log): with one actor running at a
// time on the virtual clock, leader kills, elections and commit batching are
// a function of the key too.
func TestConsensusSweepTraceGolden(t *testing.T) {
	sweepTraceGolden(t, KindConsensus, 288, "cd2fd0cdd2367f836e0c3fbe5ea8b1d38dc3bef914426c3c40357c3dee9eb0eb")
}

// TestViewSweepTraceGolden pins the default `ftvm-sim -view -trace` sweep (528
// three-node schedules): the hash was taken while the single-view service,
// since deleted, seated the cluster, so it is the proof that a one-shard
// directory issues the same epochs and recruits in the same order.
func TestViewSweepTraceGolden(t *testing.T) {
	sweepTraceGolden(t, KindView, 528, "2015455ea52960db63b95afe5271accdf99a3297a1f7444efcf7783b9d957621")
}

// TestFleetTracePinsTheRun: a clean fleet combo's trace line carries the
// counts the run must produce, and a different seed visibly changes it (the
// checksum differs) — so an unintentional change to the deterministic
// execution (RNG derivation, cost model, histogram) shows up as a diff rather
// than silently changing every committed benchmark.
func TestFleetTracePinsTheRun(t *testing.T) {
	line := func(seed uint64) (string, *loadgen.Stats) {
		out := Run(&FleetCombo{Seed: seed, Nodes: 4, Shards: 8, Clients: 400, Ops: 2, Fault: "none"})
		if out.Failed() {
			t.Fatalf("clean combo failed: %s", out.TraceLine())
		}
		return out.TraceLine(), out.Result.(*loadgen.Stats)
	}
	a, st := line(1)
	if !strings.HasPrefix(a, "seed=1,nodes=4,shards=8,clients=400,ops=2,ka=0@0,kb=0@0,fault=none/0,inject=0 -> oks=800 ") ||
		!strings.Contains(a, " retries=0 ") || !strings.HasSuffix(a, " ok") {
		t.Fatalf("clean combo trace unexpected: %s", a)
	}
	if _, other := line(2); other.Checksum == st.Checksum {
		t.Fatal("different seeds produced identical clean-run checksums")
	}
}
