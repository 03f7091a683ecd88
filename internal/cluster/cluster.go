// Package cluster assembles and drives a replicated run: a primary VM logs to
// a backup, and the backup either sees the halt or recovers from the log
// (§3–§4 of the paper). It is the one assembly behind the product's
// replicated-run functions, the deterministic simulator and the differential
// fuzzer. A run is a cold pair, a warm pair or a 3-replica consensus log, and
// what those callers differ on is injected: the link, the clock, the primary
// and recovery configuration, the commit bound, the backup's failure timeout,
// the pair's epoch, and one kill hook.
package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Topology is where a run's log goes while the primary executes.
type Topology int

const (
	// ColdPair is the paper's design: one backup logs the frame stream and
	// recovers from it if the primary dies.
	ColdPair Topology = iota
	// WarmPair's backup executes the program as records arrive and, if the
	// primary dies, finishes it live.
	WarmPair
	// Consensus replicates the frame stream onto a 3-replica log. The VM is
	// colocated with the elected leader and dies with it; the survivors
	// elect, and recovery replays their committed prefix.
	Consensus
)

// Config describes one replicated run.
type Config struct {
	Topology Topology
	// Primary configures the primary's coordinator; Run fills in its
	// Backend. Its Mode and Clock (nil = wall clock) are the whole run's:
	// every actor runs on that clock.
	Primary replication.PrimaryConfig
	// Recover is how a failed run recovers: the program, environment and VM
	// limits, which the primary's VM runs under too, and the recovery's own
	// scheduling policy. With Capture set the policy must be a
	// *vm.SeededPolicy, since the capture header names its seed and quanta.
	Recover replication.RecoverConfig
	// Link builds the link between replicas i < j, the first endpoint i's:
	// the pair's primary (0) and backup (1), or each edge of the consensus
	// mesh. Nil is an in-process pipe on the run's clock.
	Link func(i, j int) (transport.Endpoint, transport.Endpoint)
	// AckTimeout bounds each output-commit wait — the pair backup's ack, or
	// the consensus log's majority commit — before the primary declares its
	// backup lost (0 = wait forever).
	AckTimeout time.Duration
	// Epoch is the pair's view: the primary stamps it on every frame and the
	// backup serves in it.
	Epoch uint64
	// FailureTimeout is how long a pair's backup tolerates silence before it
	// declares the primary dead (0 = transport closure only).
	FailureTimeout time.Duration
	// ConsensusSeed pins the consensus cluster's election schedule.
	ConsensusSeed uint64
	// Kill, when set, is called once the VM exists and before it runs, with
	// the handles a fault schedule needs (see Faults).
	Kill func(*Faults)
	// FailStopOnLoss treats a primary that lost its backup as failed: the
	// backup's own detector has fired too, and the run recovers from the log.
	// Runs over links that misbehave on purpose set it. Unset, a lost backup
	// is the run's error.
	FailStopOnLoss bool
	// Capture, when set, is a path the logged record stream is written to as
	// an .ftlog capture once the log is complete. Its header is the recovery
	// configuration, so a debugger opening it replays exactly the execution
	// the recovering backup would reconstruct.
	Capture string
	// SkipRecovery leaves a failed cold pair's log at its backup, unrecovered,
	// for the caller to take over by other means (the simulator's view
	// cluster promotes it with state transfer).
	SkipRecovery bool
}

// Result describes a replicated run.
type Result struct {
	Stats   vm.Stats      // primary VM counters (up to the kill, if any)
	Console []string      // the primary's output, or the recovered execution's
	Elapsed time.Duration // the primary's run, on the run's clock
	Env     *env.Env
	Primary replication.PrimaryMetrics
	// Backup is what the log site logged: the pair backup's serve counters,
	// or the committed record count of a consensus log.
	Backup  replication.BackupStats
	Outcome replication.ServeOutcome
	Killed  bool
	// PrimaryErr is the primary VM's run error verbatim.
	PrimaryErr      error
	Recovery        *replication.RecoveryReport
	RecoveryElapsed time.Duration
	// Total runs from the primary's first instruction to the end of the
	// run: the log read back and any recovery included.
	Total time.Duration
	// Consensus holds per-replica protocol counters taken when the primary
	// stopped (nil for pair runs). FirstLeader led when the VM started,
	// FinalLeader in FinalTerm when the committed log was read back.
	Consensus                []consensus.Stats
	FirstLeader, FinalLeader int
	FinalTerm                uint64
	// Cold is the backup holding the log: the pair's backup, cold or warm
	// (the warm one is the same backup, replaying its log as it grows), or
	// the replica a committed consensus log was loaded into for recovery.
	Cold *replication.Backup
	// Warm is the warm backup's report (WarmPair only).
	Warm *replication.WarmResult

	committed []wire.Record // the consensus log, as read back
}

// Records returns the logged record stream: the pair backup's log or the
// committed consensus log.
func (r *Result) Records() []wire.Record {
	if r.committed == nil && r.Cold != nil {
		return r.Cold.Store().Records()
	}
	return r.committed
}

// Faults is what Config.Kill is handed: how to fail-stop parts of the run
// while it executes, and — on a consensus run — the cluster and its elected
// leader, for schedules that kill followers, cut links or inject stale
// frames.
type Faults struct {
	Cluster *consensus.Cluster
	Leader  *consensus.Replica

	clk     clock.Clock
	machine *vm.VM
	logged  func() int
	victim  atomic.Pointer[consensus.Replica]
	fired   atomic.Bool
	// runDone and polled join the poller, once Poll has started it.
	runDone, polled *clock.Flag
}

// Process fail-stops the primary's process: the VM at once and, on a
// consensus run, the leader replica that dies with it, from the poller. It
// is safe where a send hook runs, under the link's lock.
func (f *Faults) Process() {
	f.machine.Kill()
	f.Stop(f.Leader)
}

// Stop fail-stops replica r from the poller (nil: nothing but what Process
// already killed). It is safe under a link's lock.
func (f *Faults) Stop(r *consensus.Replica) {
	if r != nil {
		f.victim.Store(r)
	}
	f.fired.Store(true)
}

// pollEvery is the poller's period.
const pollEvery = 50 * time.Microsecond

// Poll starts the run's one poller actor; call it at most once. Until the VM
// returns it wakes every pollEvery and calls Process once trigger (if any)
// holds for the number of records logged so far — records the pair backup
// holds, or records the consensus leader has committed. Once Process or Stop
// has fired it stops the replica they named and exits, also when they fired
// in the last period before the VM returned: that replica must not serve the
// read-back.
func (f *Faults) Poll(trigger func(logged int) bool) {
	f.runDone, f.polled = clock.NewFlag(f.clk), clock.NewFlag(f.clk)
	f.clk.Go(func() {
		defer f.polled.Set()
		for !f.runDone.IsSet() && !f.fired.Load() {
			if trigger != nil && trigger(f.logged()) {
				f.Process()
			} else {
				f.clk.Sleep(pollEvery)
			}
		}
		if r := f.victim.Load(); r != nil && f.fired.Load() {
			r.Stop()
		}
	})
}

// leaderWait bounds each wait for a consensus election: generous, as elections
// settle in tens of milliseconds of wall time and cost nothing on a virtual
// clock.
const leaderWait = 10 * time.Second

// run is one Run in progress.
type run struct {
	cfg    Config
	clk    clock.Clock
	res    *Result
	faults Faults
	// release tears the log site down; wait joins it once the primary has
	// stopped and records what it saw in res.
	release func()
	wait    func() error
}

// Run assembles the run cfg describes and drives it to its end: the log
// site, the primary and its VM, the kill hook, the run, the capture, and
// recovery if the primary failed. An error means the run or the replication
// contract broke, not merely that an injected failure fired; a non-nil
// Result comes with it once the VM has run.
func Run(cfg Config) (*Result, error) {
	r := &run{cfg: cfg, clk: clock.Or(cfg.Primary.Clock), res: &Result{Env: cfg.Recover.Env}}
	r.faults.clk = r.clk
	pc := cfg.Primary
	var err error
	if cfg.Topology == Consensus {
		err = r.consensus(&pc)
	} else {
		err = r.pair(&pc)
	}
	if r.release != nil {
		defer r.release()
	}
	if err != nil {
		return nil, err
	}
	primary, err := replication.NewPrimary(pc)
	if err != nil {
		return nil, err
	}
	rc := cfg.Recover
	machine, err := primary.NewVM(vm.Config{
		Program:         rc.Program,
		Env:             rc.Env,
		MaxInstructions: rc.MaxInstructions,
		Dispatch:        rc.Dispatch,
	})
	if err != nil {
		return nil, err
	}
	f := &r.faults
	f.machine = machine
	if cfg.Kill != nil {
		cfg.Kill(f)
	}

	res := r.res
	t0 := r.clk.Now()
	defer func() { res.Total = r.clk.Since(t0) }()
	runErr := machine.Run()
	res.Elapsed = r.clk.Since(t0)
	if f.runDone != nil {
		f.runDone.Set()
		f.polled.Wait()
	}
	siteErr := r.wait()
	res.Stats, res.Console, res.Primary = machine.Stats(), rc.Env.Console().Lines(), primary.Metrics()
	res.Killed, res.PrimaryErr = machine.Killed(), runErr
	if siteErr != nil {
		return res, siteErr
	}
	if cfg.Capture != "" {
		if err := capture(cfg.Capture, pc.Mode, rc, res.Records()); err != nil {
			return res, fmt.Errorf("capture log: %w", err)
		}
	}

	lost := errors.Is(runErr, replication.ErrBackupLost)
	done := res.Outcome == replication.OutcomePrimaryCompleted
	switch {
	case runErr != nil && !res.Killed && !(lost && cfg.FailStopOnLoss):
		return res, fmt.Errorf("primary run: %w", runErr)
	case done:
		// Including a kill that landed after the halt marker shipped.
		return res, nil
	case !res.Outcome.Failed() || (!res.Killed && runErr == nil):
		return res, fmt.Errorf("primary killed=%t (err %v) but the log site observed %v", res.Killed, runErr, res.Outcome)
	case res.Warm != nil || cfg.SkipRecovery:
		return res, nil
	}
	if res.Cold == nil {
		if res.Cold, err = Offline(pc.Mode, res.committed); err != nil {
			return res, fmt.Errorf("recovery load: %w", err)
		}
	}
	r0 := r.clk.Now()
	_, res.Recovery, err = res.Cold.Recover(rc)
	res.RecoveryElapsed = r.clk.Since(r0)
	res.Console = rc.Env.Console().Lines()
	if err != nil {
		return res, fmt.Errorf("recovery after %v: %w", res.Outcome, err)
	}
	return res, nil
}

// pair stands one backup at the far end of the link. It logs, and then
// either recovers afterwards if asked (cold) or executes under cfg.Recover
// as its log grows (warm). It waits in Recv until the primary exists and
// speaks.
func (r *run) pair(pc *replication.PrimaryConfig) error {
	link := r.cfg.Link
	if link == nil {
		link = func(int, int) (transport.Endpoint, transport.Endpoint) {
			return transport.PipeClock(transport.PipeCapacity, pc.Clock)
		}
	}
	pEnd, bEnd := link(0, 1)
	// Closing the primary's end releases a backup still waiting in Recv when
	// the run never started.
	r.release = func() { _ = pEnd.Close() }
	pb, err := replication.NewPairBackend(replication.PairBackendConfig{Endpoint: pEnd,
		AckTimeout: r.cfg.AckTimeout, Clock: r.clk, Epoch: r.cfg.Epoch})
	if err != nil {
		return err
	}
	pc.Backend = pb
	bc := replication.BackupConfig{Mode: pc.Mode, Endpoint: bEnd, FailureTimeout: r.cfg.FailureTimeout,
		Clock: pc.Clock, Epoch: r.cfg.Epoch}
	if r.cfg.Topology == ColdPair {
		backup, wait, err := Serve(bc)
		if err != nil {
			return err
		}
		r.res.Cold, r.faults.logged = backup, backup.Store().Len
		r.wait = func() (err error) {
			r.res.Outcome, err = wait()
			r.res.Backup = backup.Stats()
			return err
		}
		return nil
	}
	backup, err := replication.NewBackup(bc)
	if err != nil {
		return err
	}
	r.res.Cold, r.faults.logged = backup, backup.Store().Len
	done := clock.NewFlag(r.clk)
	var serveErr error
	r.clk.Go(func() {
		defer done.Set()
		if _, r.res.Warm, serveErr = backup.RunWarm(r.cfg.Recover); r.res.Warm != nil {
			r.res.Outcome, r.res.Backup = r.res.Warm.Outcome, r.res.Warm.Serve
		}
	})
	r.wait = func() error {
		done.Wait()
		return serveErr
	}
	return nil
}

// consensus stands the 3-replica log where the pair's backup stood and
// colocates the primary with its elected leader.
func (r *run) consensus(pc *replication.PrimaryConfig) error {
	c, err := consensus.NewCluster(consensus.Config{Seed: r.cfg.ConsensusSeed, Clock: pc.Clock, Link: r.cfg.Link})
	if err != nil {
		return err
	}
	c.Start()
	r.release = c.Stop
	leader, err := c.WaitLeader(leaderWait)
	if err != nil {
		return fmt.Errorf("consensus election: %w", err)
	}
	pc.Backend = consensus.NewBackend(leader, r.cfg.AckTimeout)
	r.faults.Cluster, r.faults.Leader, r.res.FirstLeader = c, leader, leader.ID()
	// Records logged are records committed at the leader, counted by walking
	// the newly committed entry payloads (one that does not parse counts 0).
	var seen uint64
	var count int
	r.faults.logged = func() int {
		payloads, commit := c.CommittedPayloads(leader.ID(), seen)
		seen = commit
		for _, p := range payloads {
			n, _ := wire.Count(p)
			count += n
		}
		return count
	}
	// The outcome is read off the committed log: completed if it holds the
	// clean-halt marker, failed if not.
	r.wait = func() error {
		res := r.res
		for i := 0; i < c.Size(); i++ {
			res.Consensus = append(res.Consensus, c.Replica(i).Snapshot())
		}
		recs, final, term, err := c.ReadBack(leader, leaderWait)
		if err != nil {
			return fmt.Errorf("consensus read-back: %w; replicas at the end of the run: %+v", err, res.Consensus)
		}
		res.committed, res.FinalLeader, res.FinalTerm = recs, final.ID(), term
		res.Backup.RecordsLogged = uint64(len(recs))
		res.Outcome = replication.OutcomePrimaryFailed
		if halted(recs) {
			res.Outcome = replication.OutcomePrimaryCompleted
		}
		return nil
	}
	return nil
}

// halted reports whether a record stream holds the clean-halt marker.
func halted(recs []wire.Record) bool {
	for _, rec := range recs {
		if _, ok := rec.(*wire.Halt); ok {
			return true
		}
	}
	return false
}

// Serve starts a cold backup for cfg serving as an actor on cfg.Clock, and
// returns it with a wait for its verdict. On a failed outcome the backup
// closes its end, as a real takeover tears the channel down; that also
// unblocks a primary still parked on an ack for a frame the link swallowed.
func Serve(cfg replication.BackupConfig) (*replication.Backup, func() (replication.ServeOutcome, error), error) {
	backup, err := replication.NewBackup(cfg)
	if err != nil {
		return nil, nil, err
	}
	clk := clock.Or(cfg.Clock)
	done := clock.NewFlag(clk)
	var outcome replication.ServeOutcome
	var serveErr error
	clk.Go(func() {
		defer done.Set()
		if outcome, serveErr = backup.Serve(); outcome.Failed() {
			_ = cfg.Endpoint.Close()
		}
	})
	return backup, func() (replication.ServeOutcome, error) {
		done.Wait()
		return outcome, serveErr
	}, nil
}

// Offline stands up a cold backup that holds records and speaks to nobody:
// the replica a committed consensus log, or a clean run's whole log, is
// replayed at.
func Offline(mode replication.Mode, records []wire.Record) (*replication.Backup, error) {
	backup, err := replication.NewBackup(replication.BackupConfig{Mode: mode})
	if err != nil {
		return nil, err
	}
	return backup, backup.LoadRecords(records)
}

// capture writes records to path as an .ftlog capture whose header is rc's:
// the environment's seed, the recovery policy's seed and quanta, the limits.
func capture(path string, mode replication.Mode, rc replication.RecoverConfig, records []wire.Record) error {
	policy, ok := rc.Policy.(*vm.SeededPolicy)
	if !ok {
		return fmt.Errorf("recovery policy %T names no seed for the header", rc.Policy)
	}
	return replication.WriteLogFile(path, replication.LogHeader{
		EnvSeed:         rc.Env.Seed(),
		PolicySeed:      policy.Seed,
		MinQuantum:      policy.MinQ,
		MaxQuantum:      policy.MaxQ,
		Mode:            mode,
		MaxInstructions: rc.MaxInstructions,
	}, rc.Program, records)
}
