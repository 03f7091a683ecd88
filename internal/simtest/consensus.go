package simtest

import (
	"fmt"
	"sync/atomic"
	"time"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
)

// ConsensusCombo is one point of the consensus sweep: a generated program, a
// mode, and a fault schedule over a VM colocated with the elected leader of a
// 3-replica replicated log, every inter-replica link a seeded simnet channel,
// positioned in exact message counts — kill the leader (taking the VM with
// it) or a follower at the Nth protocol send, suppress a window of leader
// appends (an asymmetric partition that heals), wrap one link in a transport
// fault, inject a stale-term frame, and pick the election seed that times the
// campaigns.
//
//	go run ./cmd/ftvm-sim -replay "prog=7,size=small,mode=sched,who=leader,kill=12,deliver=1,part=0+0,inject=0,fault=none@0,eseed=1,net=3,reorder=1/8"
type ConsensusCombo struct {
	// Each link forks its own seeded lanes from the net seed so the three
	// channels draw distinct delays. The fault wraps replica 0's endpoints
	// toward both peers, so it always sits on a leader-facing lane no matter
	// where the election puts the roles (an append stream or a response
	// stream misbehaves depending on who won). Each lane's fault counter is
	// independent.
	ProgCombo
	// KillAtSend > 0 fail-stops the victim at its KillAtSend-th protocol
	// message offered toward its lowest-id peer (1-based). KillLeader picks
	// the victim: the elected leader (the VM dies with it — the §4 crash the
	// survivors must recover from) or the lowest-id follower (the run must
	// complete through the remaining majority). KillDeliver lets the
	// triggering message escape onto the wire.
	KillLeader  bool
	KillAtSend  int
	KillDeliver bool
	// PartLen > 0 suppresses sends n in [PartAt, PartAt+PartLen) on the
	// leader's lane toward its lowest-id follower: a one-way partition that
	// heals, which commit flow must survive through the other follower and
	// retransmission must repair afterwards.
	PartAt, PartLen int
	// InjectStale injects a term-0 AppendEntries into the lowest-id follower
	// after the election settles; the replica must reject and count it.
	InjectStale bool
	// ESeed pins the cluster's election timeout streams
	// (consensus.Config.Seed; 0 means 1).
	ESeed uint64
}

// Kind implements Scenario.
func (cb *ConsensusCombo) Kind() Kind { return KindConsensus }

func (cb *ConsensusCombo) fields() []field {
	fs := append(cb.progFields(), mark(one("who", (*victim)(&cb.KillLeader))), one("kill", &cb.KillAtSend),
		one("deliver", &cb.KillDeliver), two("part", "+", &cb.PartAt, &cb.PartLen), one("inject", &cb.InjectStale),
		cb.faultField(), one("eseed", &cb.ESeed))
	return append(fs, cb.netFields()...)
}

// consensusCombos: for every base × election seed, one clean run, a
// stale-injection run, a leader and a follower kill per position, two healing
// partition windows on the leader lane, and one run per link fault (a dropped
// append, a corrupted receive).
func consensusCombos(c *SweepConfig) (out []Scenario) {
	faults := []transport.FaultPlan{
		{Kind: transport.FaultDropSend, At: 3},
		{Kind: transport.FaultCorruptRecv, At: 2},
	}
	add := func(cb ConsensusCombo) { out = append(out, &cb) }
	for _, pc := range sweepBases(c) {
		for _, es := range orDefault(c.ESeeds, 1) {
			base := ConsensusCombo{ProgCombo: pc, ESeed: es}
			add(base) // clean run
			inj := base
			inj.InjectStale = true
			add(inj)
			for i, kill := range orDefault(c.Kills, 2, 5, 12) {
				lk := base
				lk.KillLeader, lk.KillAtSend, lk.KillDeliver = true, kill, i%2 == 1
				add(lk)
				fk := base
				fk.KillAtSend, fk.KillDeliver = kill, i%2 == 0
				add(fk)
			}
			for _, p := range [][2]int{{3, 4}, {8, 2}} {
				part := base
				part.PartAt, part.PartLen = p[0], p[1]
				add(part)
			}
			for _, f := range faults {
				fc := base
				fc.FaultKind, fc.FaultAt = f.Kind, f.At
				add(fc)
			}
		}
	}
	return out
}

// run: beyond output equality the verdict asserts the stale-term contract —
// an injected stale frame must be rejected and counted, never acted on.
func (cb *ConsensusCombo) run(prog *ftvm.Program, out *Outcome) error {
	r, err := RunConsensusCluster(*cb, prog)
	if r == nil {
		return err
	}
	var stale, malformed uint64
	for _, s := range r.Consensus {
		stale += s.StaleTerms
		malformed += s.Malformed
	}
	out.Result, out.Console = r, r.Console
	out.Summary = fmt.Sprintf("killed=%t recovered=%t leader=%d->%d term=%d records=%d stale=%d malformed=%d vtime=%s console=%d",
		r.Killed, r.Recovery != nil, r.FirstLeader, r.FinalLeader, r.FinalTerm,
		r.Backup.RecordsLogged, stale, malformed, r.Total, len(r.Console))
	if cb.InjectStale && stale == 0 {
		out.Detail = "stale-term frame was injected but never rejected (follower acted on old-term traffic?)"
	}
	return err
}

// consensusAckTimeout bounds each output-commit wait, in virtual time: long
// enough to ride out a re-election.
const consensusAckTimeout = 2 * time.Second

// RunConsensusCluster plays the combo's schedule over prog to completion on a
// fresh virtual clock. Not every summary column is yet a function of the
// combo — see RunSweep. An error means the harness or the protocol contract
// broke (survivors failed to elect, committed log undecodable, recovery
// failed) — not merely that the injected failure fired.
func RunConsensusCluster(cb ConsensusCombo, prog *ftvm.Program) (*cluster.Result, error) {
	return clock.Drive(wallLimit, func(clk *clock.Virtual) (*cluster.Result, error) {
		cfg, err := cb.config(prog, clk)
		if err != nil {
			return nil, err
		}
		cfg.Topology, cfg.ConsensusSeed = cluster.Consensus, cb.ESeed
		cfg.Primary.AckTimeout = consensusAckTimeout
		// Full mesh over simnet: raw[i][j] is replica i's endpoint toward j,
		// kept so the schedule's hooks can be installed once roles are known.
		// Each link forks its own lane seeds from the net seed.
		var raw [3][3]*simnet.Endpoint
		cfg.Link = func(i, j int) (transport.Endpoint, transport.Endpoint) {
			net := cb.net()
			net.Seed += int64(i*7 + j*13)
			a, b := simnet.Link(clk, net)
			raw[i][j], raw[j][i] = a, b
			if i == 0 {
				return cb.faulty(a, clk), b
			}
			return a, b
		}
		cfg.Kill = func(f *cluster.Faults) { cb.schedule(f, &raw) }
		return cluster.Run(cfg)
	})
}

// schedule installs the combo's faults once the election has settled and the
// VM exists. Send hooks run under the link lock and only count, flip atomics
// and suppress delivery; the replica fail-stops they ask for run in the
// cluster's poller (simnet endpoint close takes the same link lock a hook
// already holds).
func (cb *ConsensusCombo) schedule(f *cluster.Faults, raw *[3][3]*simnet.Endpoint) {
	leader := f.Leader.ID()
	// lowestPeer returns the lowest replica id that is not `of`.
	lowestPeer := func(of int) int {
		if of == 0 {
			return 1
		}
		return 0
	}
	if cb.KillAtSend > 0 {
		victim := leader
		if !cb.KillLeader {
			victim = lowestPeer(leader)
		}
		probe := lowestPeer(victim)
		var dead atomic.Bool
		// Positions count from hook installation, not link creation — the
		// election's own traffic must not consume the schedule's indices.
		at := cb.KillAtSend + raw[victim][probe].Sends()
		killAtSend(raw[victim][probe], at, cb.KillDeliver, func() {
			dead.Store(true)
			if victim == leader {
				f.Process()
			} else {
				f.Stop(f.Cluster.Replica(victim))
			}
		})
		// Only the probe lane counts the schedule; the victim's other lane
		// just goes silent with it.
		raw[victim][3-victim-probe].SetSendHook(func(int, []byte) bool { return !dead.Load() })
		f.Poll(nil)
	}
	if cb.PartLen > 0 {
		lane := raw[leader][lowestPeer(leader)]
		from := cb.PartAt + lane.Sends()
		until := from + cb.PartLen
		lane.SetSendHook(func(sn int, _ []byte) bool {
			return sn < from || sn >= until
		})
	}
	if cb.InjectStale {
		f.Cluster.Replica(lowestPeer(leader)).Inject(consensus.StaleProbe(leader))
	}
}
