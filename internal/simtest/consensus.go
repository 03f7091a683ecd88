package simtest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	ftvm "repro"
	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
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
	out.Result, out.Console = r, r.Console
	out.Summary = fmt.Sprintf("killed=%t recovered=%t leader=%d->%d term=%d records=%d stale=%d malformed=%d vtime=%s console=%d",
		r.Killed, r.Recovered, r.FirstLeader, r.FinalLeader, r.FinalTerm,
		r.RecordsLogged, r.StaleTerms, r.Malformed, r.VirtualElapsed, len(r.Console))
	if cb.InjectStale && r.StaleTerms == 0 {
		out.Detail = "stale-term frame was injected but never rejected (follower acted on old-term traffic?)"
	}
	return err
}

// consensusAckTimeout bounds each output-commit wait, in virtual time: long
// enough to ride out a re-election.
const consensusAckTimeout = 2 * time.Second

// ConsensusClusterResult reports what one simulated consensus schedule did.
// Every field is meant to be a function of the config (VirtualElapsed is
// simulated time); not all of them are yet — see RunSweep.
type ConsensusClusterResult struct {
	// Killed reports the victim kill landed before clean completion;
	// Recovered that the committed log was re-executed at a cold replica.
	Killed    bool
	Recovered bool
	// Console is the observable output after the schedule fully played out.
	Console []string
	// RecordsLogged is the committed record count read back from the final
	// leader's log.
	RecordsLogged int
	// FirstLeader / FinalLeader are the replica ids holding leadership at VM
	// start and at log read-back; FinalTerm is the final leader's term.
	FirstLeader, FinalLeader int
	FinalTerm                uint64
	// StaleTerms / Malformed aggregate the replicas' rejection counters.
	StaleTerms, Malformed uint64
	// PrimaryErr is the VM run's error verbatim (ErrBackupLost is expected
	// whenever the schedule deposes or kills the leader mid-run).
	PrimaryErr error
	// Recovery is the replay report when Recovered.
	Recovery *replication.RecoveryReport
	// VirtualElapsed is total simulated time, VM start to recovery end.
	VirtualElapsed time.Duration
}

// RunConsensusCluster plays the combo's schedule over prog to completion on a
// fresh virtual clock. An error means the harness or the protocol contract
// broke (survivors failed to elect, committed log undecodable, recovery
// failed) — not merely that the injected failure fired.
func RunConsensusCluster(cb ConsensusCombo, prog *ftvm.Program) (*ConsensusClusterResult, error) {
	cfg, err := cb.clusterBase(prog)
	if err != nil {
		return nil, err
	}
	return onVirtualClock(func(clk *clock.Virtual) (*ConsensusClusterResult, error) {
		return runConsensusCluster(clk, cfg, &cb)
	})
}

func runConsensusCluster(clk *clock.Virtual, cfg *clusterBase, cb *ConsensusCombo) (*ConsensusClusterResult, error) {
	environ := env.New(cfg.EnvSeed)

	// Full mesh over simnet: raw[i][j] is replica i's endpoint toward j,
	// kept so schedule hooks can be installed once roles are known. Each
	// link forks its own lane seeds from Net.Seed.
	const n = 3
	var raw [n][n]*simnet.Endpoint
	link := func(i, j int) (transport.Endpoint, transport.Endpoint) {
		net := cfg.Net
		net.Seed = cfg.Net.Seed + int64(i*7+j*13)
		a, b := simnet.Link(clk, net)
		raw[i][j], raw[j][i] = a, b
		if i == 0 {
			return cfg.faulty(a, clk), b
		}
		return a, b
	}
	cluster, err := consensus.NewCluster(consensus.Config{
		Replicas: n,
		Seed:     cb.ESeed,
		Clock:    clk,
		Link:     link,
	})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer cluster.Stop()
	leader, err := cluster.WaitLeader(10 * time.Second)
	if err != nil {
		return nil, fmt.Errorf("initial election: %w", err)
	}
	leaderID := leader.ID()

	// lowestPeer returns the lowest replica id that is not `of`.
	lowestPeer := func(of int) int {
		if of == 0 {
			return 1
		}
		return 0
	}

	machine, err := cfg.newPrimaryVM(clk, environ, replication.PrimaryConfig{
		Backend: consensus.NewBackend(leader, consensusAckTimeout),
	})
	if err != nil {
		return nil, err
	}

	// Schedule hooks. Send hooks run under the link lock and only count,
	// flip atomics, and suppress delivery; the replica fail-stop itself runs
	// in a poller actor (simnet endpoint close takes the same link lock a
	// hook already holds).
	runDone := clock.NewFlag(clk)
	killDone := clock.NewFlag(clk)
	if cb.KillAtSend > 0 {
		victim := leaderID
		if !cb.KillLeader {
			victim = lowestPeer(leaderID)
		}
		probe := lowestPeer(victim)
		var killFlag atomic.Bool
		// Positions count from hook installation, not link creation — the
		// election's own traffic must not consume the schedule's indices.
		at := cb.KillAtSend + raw[victim][probe].Sends()
		killAtSend(raw[victim][probe], at, cb.KillDeliver, func() {
			killFlag.Store(true)
			if victim == leaderID {
				machine.Kill()
			}
		})
		// Only the probe lane counts the schedule; the victim's other lane
		// just goes silent with it.
		raw[victim][n-victim-probe].SetSendHook(func(int, []byte) bool { return !killFlag.Load() })
		clk.Go(func() {
			defer killDone.Set()
			for !runDone.IsSet() {
				if killFlag.Load() {
					cluster.Kill(victim)
					return
				}
				clk.Sleep(200 * time.Microsecond)
			}
		})
	} else {
		killDone.Set()
	}
	if cb.PartLen > 0 {
		lane := raw[leaderID][lowestPeer(leaderID)]
		from := cb.PartAt + lane.Sends()
		until := from + cb.PartLen
		lane.SetSendHook(func(sn int, _ []byte) bool {
			return sn < from || sn >= until
		})
	}
	if cb.InjectStale {
		cluster.Replica(lowestPeer(leaderID)).Inject(consensus.StaleProbe(leaderID))
	}

	t0 := clk.Now()
	runErr := machine.Run()
	runDone.Set()
	killDone.Wait()

	res := &ConsensusClusterResult{
		Killed:      machine.Killed(),
		Console:     environ.Console().Lines(),
		FirstLeader: leaderID,
		PrimaryErr:  runErr,
	}
	for i := 0; i < n; i++ {
		s := cluster.Replica(i).Snapshot()
		res.StaleTerms += s.StaleTerms
		res.Malformed += s.Malformed
	}

	// Read the committed log back from the final leader — after a leader
	// kill that means waiting out the survivors' election, whose barrier
	// commit fences every surviving entry.
	source := leader
	if source.Stopped() {
		source, err = cluster.WaitLeader(10 * time.Second)
		if err != nil {
			return res, fmt.Errorf("post-kill election: %w", err)
		}
	}
	res.FinalLeader = source.ID()
	res.FinalTerm = source.Term()
	recs, err := cluster.CommittedRecords(source.ID())
	if err != nil {
		return res, fmt.Errorf("committed log: %w", err)
	}
	res.RecordsLogged = len(recs)
	halted := false
	for _, r := range recs {
		if _, ok := r.(*wire.Halt); ok {
			halted = true
		}
	}

	if runErr != nil && !machine.Killed() && !errors.Is(runErr, replication.ErrBackupLost) {
		return res, fmt.Errorf("primary run: %w", runErr)
	}
	clean := !machine.Killed() && runErr == nil
	if clean && !halted {
		// No kill, or a follower kill the majority rode out: the committed
		// log must hold the halt.
		return res, errors.New("clean run without a committed halt")
	}
	if halted {
		// Clean completion, or a kill or deposition that raced it: every
		// output commit made it, the console is complete.
		res.VirtualElapsed = clk.Since(t0)
		return res, nil
	}

	// Recovery: load the survivors' committed prefix into a cold backup and
	// re-execute log-gated against the same environment.
	res.Recovered = true
	replay, err := replication.NewBackup(replication.BackupConfig{Mode: cfg.Mode, Clock: clk})
	if err != nil {
		return res, err
	}
	if err := replay.LoadRecords(recs); err != nil {
		return res, fmt.Errorf("recovery load: %w", err)
	}
	_, report, err := replay.Recover(cfg.recoverConfig(environ, cfg.RecoverSeed))
	res.VirtualElapsed = clk.Since(t0)
	res.Recovery = report
	res.Console = environ.Console().Lines()
	if err != nil {
		return res, fmt.Errorf("recovery: %w", err)
	}
	return res, nil
}
