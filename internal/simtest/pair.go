package simtest

import (
	"errors"
	"fmt"
	"time"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/vm"
)

// Combo is one point of the pair sweep: a generated program, a replication
// mode, and a fault schedule (a kill position, a channel fault, a network
// seed, and a reorder chance).
//
//	go run ./cmd/ftvm-sim -replay "prog=7,size=small,mode=sched,kill=12,deliver=1,fault=none@0,net=3,reorder=1/8"
type Combo struct {
	ProgCombo // the fault wraps the primary's endpoint
	// KillAtSend / KillDeliver crash the primary (see killAtSend).
	KillAtSend  int
	KillDeliver bool
	// Dispatch selects the interpreter stream for the primary and any
	// recovery VM (default threaded). The epoch-edge regression entries pin
	// both streams against the same fault schedules.
	Dispatch ftvm.Dispatch
	// Capture, when non-empty, writes the backup's replication log to this
	// path as a durable .ftlog file (see replication.EncodeLog) after the
	// schedule plays out, seeded with the recovery-policy parameters so
	// ftvm-debug replays the exact execution the backup would reconstruct.
	// Not part of the replay key: it changes what is written to disk, never
	// the run.
	Capture string
}

// Kind implements Scenario.
func (cb *Combo) Kind() Kind { return KindPair }

func (cb *Combo) fields() []field {
	fs := append(cb.progFields(), one("kill", &cb.KillAtSend), one("deliver", &cb.KillDeliver), cb.faultField())
	return append(append(fs, cb.netFields()...), optional(one("dispatch", &cb.Dispatch)))
}

// pairCombos: for every base, one clean run, one crash per kill position
// (alternating whether the final frame escapes), and one run per channel
// fault — drop, duplicate, partition and partial send, early and mid-run.
func pairCombos(c *SweepConfig) (out []Scenario) {
	faults := []transport.FaultPlan{
		{Kind: transport.FaultDropSend, At: 2},
		{Kind: transport.FaultDuplicateSend, At: 3},
		{Kind: transport.FaultPartitionSend, At: 5},
		{Kind: transport.FaultPartialSend, At: 4},
	}
	for _, base := range sweepBases(c) {
		out = append(out, &Combo{ProgCombo: base}) // clean run
		for i, kill := range orDefault(c.Kills, 1, 3, 8, 20) {
			out = append(out, &Combo{ProgCombo: base, KillAtSend: kill, KillDeliver: i%2 == 1})
		}
		for _, f := range faults {
			cb := &Combo{ProgCombo: base}
			cb.FaultKind, cb.FaultAt = f.Kind, f.At
			out = append(out, cb)
		}
	}
	return out
}

func (cb *Combo) run(prog *ftvm.Program, out *Outcome) error {
	r, err := RunCluster(*cb, prog)
	if r != nil {
		out.Result, out.Console = r, r.Console
		out.Summary = fmt.Sprintf("outcome=%q killed=%t recovered=%t records=%d vtime=%s console=%d",
			r.Outcome, r.Killed, r.Recovered, r.RecordsLogged, r.VirtualElapsed, len(r.Console))
	}
	return err
}

// ClusterResult reports what one simulated schedule did. Every field is a
// deterministic function of the config (including VirtualElapsed, which is
// simulated — not wall — time), so results can be compared byte-for-byte
// across runs.
type ClusterResult struct {
	// Outcome is the backup's serve verdict; Killed whether the kill landed
	// before clean completion; Recovered whether the backup ran recovery.
	Outcome   replication.ServeOutcome
	Killed    bool
	Recovered bool
	// Console is the observable output after the schedule fully played out
	// (primary's if it completed, the recovered execution's otherwise).
	Console []string
	// RecordsLogged is the backup's log length at takeover (0 if clean).
	RecordsLogged int
	// PrimaryErr is the primary run's error verbatim (ErrBackupLost is
	// expected on many schedules and is not a harness failure).
	PrimaryErr error
	// Recovery is the backup's report when Recovered.
	Recovery *replication.RecoveryReport
	// VirtualElapsed is total simulated time from first instruction to the
	// end of recovery.
	VirtualElapsed time.Duration

	// backup is retained for in-package tests that poke at the promoted
	// replica after the schedule ends (e.g. double takeover).
	backup *replication.Backup
}

// RunCluster plays the combo's schedule over prog to completion on a fresh
// virtual clock and returns the deterministic result. An error means the
// harness or the replication contract broke (e.g. the backup saw a clean halt
// but the primary failed for a reason other than a lost backup), not merely
// that the injected failure fired.
func RunCluster(cb Combo, prog *ftvm.Program) (*ClusterResult, error) {
	cfg, err := cb.clusterBase(prog)
	if err != nil {
		return nil, err
	}
	cfg.Dispatch = cb.Dispatch
	return onVirtualClock(func(clk *clock.Virtual) (*ClusterResult, error) {
		return runCluster(clk, cfg, &cb)
	})
}

// pairPhase is one primary running the program to its end or its death while
// a cold backup logs it: all of a pair run before recovery, and view 1 of the
// three-node cluster.
type pairPhase struct {
	machine *vm.VM
	backup  *replication.Backup
	outcome replication.ServeOutcome
	runErr  error
}

// runPairPhase plays that phase over a fresh link under epoch. The kill counts
// the primary's sends below the fault wrapper, which goes on only when
// faultOnLink (the view cluster keeps its fault for the promoted pair). A nil
// error leaves two cases: the backup saw a clean halt, or its outcome is a
// failure and it holds the log to recover from.
func (c *clusterBase) runPairPhase(clk *clock.Virtual, environ *env.Env, epoch uint64, faultOnLink bool,
	killAt int, killDeliver bool) (*pairPhase, error) {
	pRaw, bEnd := simnet.Link(clk, c.Net)
	var pEnd transport.Endpoint = pRaw
	if faultOnLink {
		pEnd = c.faulty(pRaw, clk)
	}
	machine, err := c.newPrimaryVM(clk, environ, replication.PrimaryConfig{Endpoint: pEnd, AckTimeout: ackTimeout, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	backup, wait, err := c.serveBackup(clk, bEnd, epoch)
	if err != nil {
		return nil, err
	}
	killAtSend(pRaw, killAt, killDeliver, machine.Kill)

	ph := &pairPhase{machine: machine, backup: backup}
	ph.runErr = machine.Run()
	var serveErr error
	ph.outcome, serveErr = wait()
	switch {
	case serveErr != nil:
		return ph, fmt.Errorf("backup serve: %w", serveErr)
	case ph.runErr != nil && !machine.Killed() && !errors.Is(ph.runErr, replication.ErrBackupLost):
		return ph, fmt.Errorf("primary run: %w", ph.runErr)
	case ph.outcome != replication.OutcomePrimaryCompleted && !ph.outcome.Failed():
		return ph, fmt.Errorf("backup outcome %v with primary err %v", ph.outcome, ph.runErr)
	}
	return ph, nil
}

func runCluster(clk *clock.Virtual, cfg *clusterBase, cb *Combo) (*ClusterResult, error) {
	environ := env.New(cfg.EnvSeed)
	t0 := clk.Now()
	ph, err := cfg.runPairPhase(clk, environ, 0, true, cb.KillAtSend, cb.KillDeliver)
	if ph == nil {
		return nil, err
	}
	res := &ClusterResult{
		Outcome:       ph.outcome,
		Killed:        ph.machine.Killed(),
		Console:       environ.Console().Lines(),
		RecordsLogged: ph.backup.Store().Len(),
		PrimaryErr:    ph.runErr,
		backup:        ph.backup,
	}
	if cb.Capture != "" {
		cerr := replication.WriteLogFile(cb.Capture, replication.LogHeader{
			EnvSeed:         cfg.EnvSeed,
			PolicySeed:      cfg.RecoverSeed,
			MinQuantum:      recoverMinQ,
			MaxQuantum:      recoverMaxQ,
			Mode:            cfg.Mode,
			Dispatch:        cfg.Dispatch,
			MaxInstructions: maxInstructions,
		}, cfg.Program, ph.backup.Store().Records())
		if cerr != nil {
			return res, fmt.Errorf("capture log: %w", cerr)
		}
	}
	if err != nil {
		return res, err
	}
	if ph.outcome == replication.OutcomePrimaryCompleted {
		// Last-ack window: a schedule can eat the final halt-sync ack, so
		// the backup sees a clean halt while the primary reports the backup
		// lost. The console is complete either way (the halt marker only
		// ships after every output commit).
		res.VirtualElapsed = clk.Since(t0)
		return res, nil
	}

	res.Recovered = true
	_, report, err := ph.backup.Recover(cfg.recoverConfig(environ, cfg.RecoverSeed))
	res.VirtualElapsed = clk.Since(t0)
	res.Recovery = report
	res.Console = environ.Console().Lines()
	if err != nil {
		return res, fmt.Errorf("recovery after %v: %w", ph.outcome, err)
	}
	return res, nil
}
