package cluster_test

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/vm"
)

// phases computes for milliseconds before each of its three outputs, so a
// kill polled on the wall clock has room to land where its row says: before
// the first output commit, between it and the halt, or once the halt is
// logged. It runs one thread, so its schedule and console are fixed.
const phases = `
func spin(n int) int {
	var s int = 0;
	for (var i int = 0; i < n; i = i + 1) { s = s + i % 7; }
	return s;
}
func main() {
	print("a " + itoa(spin(200000)));
	print("b " + itoa(spin(200000)));
	print("c " + itoa(spin(200000)));
}
`

// The kill points of the fault table.
const (
	noKill           = iota
	beforeFirstFrame // the first frame dies with the primary
	midRun           // after the first output committed, before the second ships
	afterHalt        // the halt marker reached the log
	killPoints
)

var killNames = [killPoints]string{"no-kill", "before-first-frame", "mid-run", "after-halt"}

// verdict is what a row must observe: the console equals the standalone
// reference; killed and recovered (the backup took over: it recovered from
// the log, or the warm backup finished live) are as the row says. A polled
// kill after the halt may land on the finished VM or not at all, so there
// the killed flag is not asserted.
type verdict struct {
	killed, recovered, anyKilled bool
}

func want(kill int, polled bool) verdict {
	switch kill {
	case beforeFirstFrame, midRun:
		return verdict{killed: true, recovered: true}
	case afterHalt:
		return verdict{killed: true, anyKilled: polled}
	}
	return verdict{}
}

func (v verdict) check(t *testing.T, ref []string, res *cluster.Result) {
	t.Helper()
	if !slices.Equal(res.Console, ref) {
		t.Errorf("console %q, want the reference %q", res.Console, ref)
	}
	if res.Killed != v.killed && !v.anyKilled {
		t.Errorf("killed=%t, want %t", res.Killed, v.killed)
	}
	if res.Outcome.Failed() != v.recovered {
		t.Errorf("outcome %v: recovered=%t, want %t", res.Outcome, res.Outcome.Failed(), v.recovered)
	}
	if res.Warm == nil && (res.Recovery != nil) != v.recovered {
		t.Errorf("recovery report %+v, want one iff recovered=%t", res.Recovery, v.recovered)
	}
}

var topologies = []struct {
	name string
	topo cluster.Topology
}{{"cold", cluster.ColdPair}, {"warm", cluster.WarmPair}, {"consensus", cluster.Consensus}}

// TestFaultTable runs one fault table — {cold pair, warm pair, consensus} ×
// {no kill, kill before the first frame ships, kill mid-run, kill after the
// halt marker ships} — against the one assembly, twice: through the
// product's polled trigger (ftvm.RunWithFailover / RunWarmReplicated on the
// wall clock) and through the simulator's exact-send hook on simnet links
// under a virtual clock. Each row's console must equal the standalone
// reference and its killed/recovered flags the row's.
func TestFaultTable(t *testing.T) {
	prog, err := ftvm.CompileSource("phases", phases)
	if err != nil {
		t.Fatal(err)
	}
	std, err := ftvm.Run(prog, ftvm.Options{EnvSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := std.Console
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			// The no-kill rows run first: they measure where the later rows'
			// kills go.
			var logged int
			var exact exactRun
			for kill := 0; kill < killPoints; kill++ {
				t.Run(killNames[kill]+"/polled", func(t *testing.T) {
					res := polledRow(t, prog, tp.topo, kill, logged)
					if kill == noKill {
						logged = int(res.Backup.RecordsLogged)
					}
					want(kill, true).check(t, ref, res)
				})
				t.Run(killNames[kill]+"/exact", func(t *testing.T) {
					want(kill, false).check(t, ref, exact.row(t, prog, tp.topo, kill))
				})
			}
		})
	}
}

// tail logs its last records after its last output: b taken twice is an id
// map and two acquisitions, and the run's end takes a monitor of its own (an
// id map and an acquisition). With the halt marker six records follow the
// output commit, so the marker is the record that fills a batch of one, two
// or three.
const tail = `
class Box { n int; }
func main() {
	var b Box = new Box;
	print("start");
	for (var i int = 0; i < 2; i = i + 1) {
		lock (b) { b.n = b.n + 1; }
	}
}
`

// TestHaltRidesTheLastAck: a clean run whose halt marker fills a batch ends
// clean on every topology. A marker shipped in an unacknowledged frame would
// end the backup's receive loop and leave the primary's closing sync
// unanswered until AckTimeout reported the backup lost.
func TestHaltRidesTheLastAck(t *testing.T) {
	prog, err := ftvm.CompileSource("tail", tail)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range topologies {
		for fe := 1; fe <= 3; fe++ {
			t.Run(fmt.Sprintf("%s/flush-%d", tp.name, fe), func(t *testing.T) {
				res, err := clock.Drive(time.Minute, func(clk *clock.Virtual) (*cluster.Result, error) {
					return cluster.Run(cluster.Config{
						Topology:      tp.topo,
						Primary:       replication.PrimaryConfig{Mode: ftvm.ModeLock, FlushEvery: fe, Clock: clk},
						Recover:       replication.RecoverConfig{Program: prog, Env: env.New(5), Policy: vm.NewSeededPolicy(7, 100, 900)},
						AckTimeout:    2 * time.Second,
						ConsensusSeed: 1,
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.PrimaryErr != nil || res.Outcome != replication.OutcomePrimaryCompleted {
					t.Fatalf("primary: %v; log site: %v", res.PrimaryErr, res.Outcome)
				}
			})
		}
	}
}

// polledRow is a row through the product's entry points. The records a
// clean run logged tell it where the halt is (total).
func polledRow(t *testing.T, prog *ftvm.Program, topo cluster.Topology, kill, total int) *ftvm.ReplicatedResult {
	t.Helper()
	trigger := ftvm.KillTrigger(func(int) bool { return false })
	switch kill {
	case beforeFirstFrame:
		trigger = ftvm.KillAfterRecords(0)
	case midRun:
		trigger = ftvm.KillAfterRecords(1)
	case afterHalt:
		trigger = ftvm.KillAfterRecords(total)
	}
	opts := ftvm.Options{EnvSeed: 5}
	run := ftvm.RunWithFailover
	switch topo {
	case cluster.WarmPair:
		run = ftvm.RunWarmReplicated
	case cluster.Consensus:
		opts.Backend = ftvm.BackendConsensus
	}
	res, err := run(prog, ftvm.ModeLock, trigger, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// exactRun carries what a topology's clean exact row measured to its kill
// rows: the primary's sends on a pair link, the leader's log length on a
// consensus cluster.
type exactRun struct {
	sends  int
	length int
}

// row is a row the way the simulator drives the assembly: simnet links on a
// virtual clock, and a send hook that kills at an exact position.
func (e *exactRun) row(t *testing.T, prog *ftvm.Program, topo cluster.Topology, kill int) *cluster.Result {
	t.Helper()
	var raw [3][3]*simnet.Endpoint
	res, err := clock.Drive(time.Minute, func(clk *clock.Virtual) (*cluster.Result, error) {
		return cluster.Run(e.config(clk, prog, topo, kill, &raw))
	})
	if err != nil {
		t.Fatal(err)
	}
	if kill == noKill {
		e.sends = raw[0][1].Sends()
		if topo == cluster.Consensus {
			e.length = res.Consensus[res.FinalLeader].LogLen
		}
	}
	return res
}

// config is the row's run. On a pair the kill lands at the primary's Nth
// frame (1: the first; 2: the second, the first having committed; the last:
// the halt, delivered). On a consensus cluster it lands at the leader's first
// send toward its lowest follower once its log holds a given entry (none; the
// second output's; the halt, delivered), and its other lane goes silent with
// it.
func (e *exactRun) config(clk *clock.Virtual, prog *ftvm.Program, topo cluster.Topology, kill int, raw *[3][3]*simnet.Endpoint) cluster.Config {
	cfg := cluster.Config{
		Topology: topo,
		Primary: replication.PrimaryConfig{
			Mode:   ftvm.ModeLock,
			Policy: vm.NewSeededPolicy(1, 64, 512),
			Clock:  clk,
		},
		Recover: replication.RecoverConfig{
			Program: prog,
			Env:     env.New(5),
			Policy:  vm.NewSeededPolicy(7, 100, 900),
		},
		FailureTimeout: 50 * time.Millisecond,
		ConsensusSeed:  1,
	}
	if topo == cluster.WarmPair {
		// A cold backup that declares the primary dead closes its end, which
		// frees a primary parked on an ack for a frame the kill swallowed; a
		// warm one finishes the program first, so the primary needs a bound.
		cfg.AckTimeout = 2 * time.Second
	}
	cfg.Link = func(i, j int) (transport.Endpoint, transport.Endpoint) {
		a, b := simnet.Link(clk, simnet.Config{Seed: int64(1 + i*7 + j*13)})
		raw[i][j], raw[j][i] = a, b
		return a, b
	}
	// Where the kill lands: at the primary's frame on a pair, at the leader's
	// first send once its log holds entry on a consensus cluster.
	frame, entry := 1, 0
	switch kill {
	case midRun:
		frame, entry = 2, e.length-2 // the second output's entry
	case afterHalt:
		frame, entry = e.sends, e.length
	}
	if kill != noKill {
		cfg.Kill = func(f *cluster.Faults) {
			lane, at := raw[0][1], func(n int) bool { return n >= frame }
			var dead atomic.Bool
			if topo == cluster.Consensus {
				leader := f.Leader.ID()
				probe, other := (leader+1)%3, (leader+2)%3
				if other < probe {
					probe, other = other, probe
				}
				lane, at = raw[leader][probe], func(int) bool { return f.Leader.Snapshot().LogLen >= entry }
				raw[leader][other].SetSendHook(func(int, []byte) bool { return !dead.Load() })
				f.Poll(nil)
			}
			lane.SetSendHook(func(n int, _ []byte) bool {
				if dead.Load() || !at(n) {
					return !dead.Load()
				}
				dead.Store(true)
				f.Process()
				return kill == afterHalt
			})
		}
	}
	return cfg
}
