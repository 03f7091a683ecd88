package simtest

import (
	"fmt"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/fleet"
	"repro/internal/fleet/loadgen"
	"repro/internal/fuzzgen"
	"repro/internal/simtest/clock"
)

// FleetCombo is one point of the sharded-fleet sweep: a fleet shape, a seeded
// open-loop workload, up to two node kills inside the arrival window, one
// replication-hop fault plan, and optionally a stale-epoch frame probe after
// the run.
//
//	go run ./cmd/ftvm-sim -replay "seed=7,nodes=4,shards=8,clients=2000,ops=3,ka=2@300,kb=0@0,fault=ackdrop/13,inject=1"
//	go run ./cmd/ftvm-sim -replay "seed=7,nodes=4,shards=8,clients=2000,ops=3,ka=2@300,kb=0@0,fault=framedrop/3,inject=0,backend=quorum"
type FleetCombo struct {
	Seed    uint64
	Nodes   int
	Shards  int
	Clients int
	Ops     int
	// Kill schedule: node is a 1-based index into the fleet's join order
	// ("n<k>"), 0 = no kill; At is the offset in the arrival window.
	Kill1Node int
	Kill1At   time.Duration
	Kill2Node int
	Kill2At   time.Duration
	// Fault and FaultEvery strike every Nth replication attempt.
	Fault      string
	FaultEvery uint64
	// InjectStale probes a reseated shard with a deposed epoch's frame after
	// the workload drains; the backup must drop it unlogged.
	InjectStale bool
	// Backend is the fleet's fleet.Config.Backend ("" = the pair default; the
	// key spells it only when set, so every key written before it existed
	// renders and replays unchanged).
	Backend string
}

// Kind implements Scenario.
func (cb *FleetCombo) Kind() Kind { return KindFleet }

func (cb *FleetCombo) program() (uint64, fuzzgen.Size, bool) { return 0, 0, false }

func (cb *FleetCombo) fields() []field {
	return []field{
		one("seed", &cb.Seed), one("nodes", &cb.Nodes), one("shards", &cb.Shards),
		mark(one("clients", &cb.Clients)), one("ops", &cb.Ops),
		two("ka", "@", &cb.Kill1Node, (*millis)(&cb.Kill1At)),
		two("kb", "@", &cb.Kill2Node, (*millis)(&cb.Kill2At)),
		two("fault", "/", &cb.Fault, &cb.FaultEvery), one("inject", &cb.InjectStale),
		optional(one("backend", &cb.Backend)),
	}
}

// fleetCombos: on a 4-node, 8-shard fleet, for every seed one clean run, then
// for each first-kill offset (200ms and 600ms into the arrival window; the
// killed node rotates with the schedule index) a kill-only run, a kill per
// replication fault kind striking every 13th attempt, a double-kill run
// (second kill at 700ms), and a stale-injection run.
func fleetCombos(c *SweepConfig) (out []Scenario) {
	const nodes, shards, faultEvery = 4, 8, 13
	clients, ops := c.Clients, c.Ops
	if clients == 0 {
		clients = 1000
	}
	if ops == 0 {
		ops = 3
	}
	add := func(cb FleetCombo) { out = append(out, &cb) }
	for _, seed := range c.Seeds {
		base := FleetCombo{Seed: seed, Nodes: nodes, Shards: shards, Clients: clients, Ops: ops, Fault: fleet.FaultNone}
		add(base) // clean run
		for i, at := range []time.Duration{200 * time.Millisecond, 600 * time.Millisecond} {
			v := base
			v.Kill1Node, v.Kill1At = 1+(int(seed)+i)%nodes, at
			add(v) // kill only
			for _, kind := range []string{fleet.FaultFrameDrop, fleet.FaultAckDrop, fleet.FaultReplyDrop} {
				vf := v
				vf.Fault, vf.FaultEvery = kind, faultEvery
				add(vf) // kill x replication fault
			}
			vv := v
			vv.Kill2Node = 1 + v.Kill1Node%nodes // a different node
			vv.Kill2At = 700 * time.Millisecond
			add(vv) // double kill, rebalance twice
			inj := v
			inj.InjectStale = true
			add(inj) // deposed-epoch straggler probe
		}
	}
	return out
}

// fleetConfigs expands the combo into the fleet and workload configurations
// it denotes.
func (cb *FleetCombo) fleetConfigs(clk clock.Clock) (fleet.Config, loadgen.Config) {
	node := func(k int) string { return fmt.Sprintf("n%d", k) }
	fcfg := fleet.Config{Clock: clk, Shards: cb.Shards, Backend: cb.Backend, Fault: cb.Fault, FaultEvery: cb.FaultEvery}
	for i := 1; i <= cb.Nodes; i++ {
		fcfg.Nodes = append(fcfg.Nodes, node(i))
	}
	lcfg := loadgen.Config{Clients: cb.Clients, OpsPerClient: cb.Ops, Seed: cb.Seed}
	if cb.Clients > 4096 {
		lcfg.SampleEvery = 64 // bound observation memory on large populations
	}
	if cb.Kill1Node > 0 {
		lcfg.Kills = append(lcfg.Kills, loadgen.Kill{At: cb.Kill1At, Node: node(cb.Kill1Node)})
	}
	if cb.Kill2Node > 0 {
		lcfg.Kills = append(lcfg.Kills, loadgen.Kill{At: cb.Kill2At, Node: node(cb.Kill2Node)})
	}
	return fcfg, lcfg
}

// run plays the combo's workload and checks the fleet invariants the sweep
// exists to enforce: every request completes exactly once against the model
// (loadgen.Run verifies this), a kill causes promotions but blasts less than
// the dead node's seat share, and a stale-epoch frame probed at a reseated
// shard is dropped unlogged.
func (cb *FleetCombo) run(_ *ftvm.Program, out *Outcome) error {
	_, err := clock.Drive(wallLimit, func(clk *clock.Virtual) (struct{}, error) { return struct{}{}, cb.play(clk, out) })
	return err
}

func (cb *FleetCombo) play(clk *clock.Virtual, out *Outcome) error {
	fcfg, lcfg := cb.fleetConfigs(clk)
	f, err := fleet.New(fcfg)
	if err != nil {
		return err
	}
	st, _, err := loadgen.Run(f, clk, lcfg)
	if err != nil {
		return err
	}

	var fail []string
	if want := uint64(cb.Clients * cb.Ops); st.OKs != want {
		fail = append(fail, fmt.Sprintf("oks=%d want=%d", st.OKs, want))
	}
	if st.Fleet.Executed < st.Requests {
		fail = append(fail, fmt.Sprintf("executed=%d < requests=%d", st.Fleet.Executed, st.Requests))
	}
	kills := 0
	if cb.Kill1Node > 0 {
		kills++
	}
	if cb.Kill2Node > 0 {
		kills++
	}
	if kills > 0 {
		if st.Fleet.Promotions == 0 {
			fail = append(fail, "kill caused no promotions")
		}
		// Blast stays under the dead nodes' share of the fleet.
		if st.BlastRadius >= float64(kills)/float64(cb.Nodes) {
			fail = append(fail, fmt.Sprintf("blast=%d/%d >= %d/%d nodes",
				st.TenantsBlasted, st.TenantsActive, kills, cb.Nodes))
		}
	} else if cb.Fault == fleet.FaultNone || cb.FaultEvery == 0 {
		if st.Retries != 0 || st.Silent != 0 {
			fail = append(fail, fmt.Sprintf("clean run retried %d / silenced %d", st.Retries, st.Silent))
		}
		if st.Fleet.Executed != st.Requests {
			fail = append(fail, fmt.Sprintf("clean run executed=%d != requests=%d", st.Fleet.Executed, st.Requests))
		}
	}
	if cb.InjectStale {
		// Probe the first reseated shard with its formation epoch (Form
		// issues epochs 1..Shards in shard order); with no reseat, probe
		// shard 0 with the never-issued epoch 0. Either way the backup's
		// epoch gate must drop the frame without logging it.
		shard, stale := 0, uint64(0)
		for i := 0; i < f.NumShards(); i++ {
			if f.Shard(i).Num != uint64(i+1) {
				shard, stale = i, uint64(i+1)
				break
			}
		}
		before := f.Counters().StaleFrames
		if f.InjectStaleFrame(shard, stale) {
			fail = append(fail, fmt.Sprintf("stale-epoch frame was logged at shard %d", shard))
		}
		if f.Counters().StaleFrames == before {
			fail = append(fail, "stale-epoch frame not counted as dropped")
		}
		st.Fleet = f.Counters() // trace reflects the probe
	}
	out.Result, out.Detail = st, strings.Join(fail, "; ")
	out.Summary = fmt.Sprintf("oks=%d req=%d retries=%d silent=%d unavail=%d notowner=%d exec=%d dup=%d resent=%d promos=%d transfers=%d stale=%d blast=%d/%d p50=%s p99=%s vtime=%s sum=%016x",
		st.OKs, st.Requests, st.Retries, st.Silent, st.Unavailable, st.NotOwner,
		st.Fleet.Executed, st.Fleet.DupHits, st.Fleet.Resent,
		st.Fleet.Promotions, st.Fleet.Transfers, st.Fleet.StaleFrames,
		st.TenantsBlasted, st.TenantsActive, st.P50, st.P99, st.Elapsed, st.Checksum)
	return nil
}
