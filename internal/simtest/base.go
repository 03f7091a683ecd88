package simtest

import (
	"errors"
	"sync"
	"time"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/fuzzgen"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/vm"
)

// What every simulated VM cluster runs with. None of these was ever varied by
// a sweep, a test or the CLI, so they are constants, not configuration.
const (
	// The primary's scheduling quantum is small, to stress interleavings;
	// the recovery policy deliberately differs.
	minQuantum, maxQuantum   = 64, 512
	recoverMinQ, recoverMaxQ = 100, 900
	// flushEvery batches log records per frame: few, so that there are many
	// frames and kill points land mid-protocol.
	flushEvery = 4
	// Both failure detectors are armed, in virtual time, so every schedule
	// terminates without real waiting. No heartbeats: a silent primary is
	// what the backup's timeout is for.
	ackTimeout     = 10 * time.Millisecond
	failureTimeout = 50 * time.Millisecond
	// maxInstructions bounds every execution.
	maxInstructions = 50_000_000
	// wallLimit is the real-time watchdog on one whole simulation: a
	// scheduling bug panics instead of hanging the sweep.
	wallLimit = 30 * time.Second
)

// ProgCombo is the part of a replay key the three VM kinds share: the
// generated program, the replication mode, one channel fault, and the
// simulated network's seed and reorder chance.
type ProgCombo struct {
	ProgSeed   uint64
	Size       fuzzgen.Size
	Mode       ftvm.Mode
	FaultKind  transport.FaultKind
	FaultAt    int
	NetSeed    int64
	ReorderNum int // chance a message skips FIFO clamping, as Num in Den
	ReorderDen int
}

func (p *ProgCombo) program() (uint64, fuzzgen.Size, bool) { return p.ProgSeed, p.Size, true }

// Their key fields; each kind's table places them among its own.
func (p *ProgCombo) progFields() []field {
	return []field{one("prog", &p.ProgSeed), one("size", &p.Size), one("mode", &p.Mode)}
}
func (p *ProgCombo) faultField() field { return two("fault", "@", &p.FaultKind, &p.FaultAt) }
func (p *ProgCombo) netFields() []field {
	return []field{one("net", &p.NetSeed), two("reorder", "/", &p.ReorderNum, &p.ReorderDen)}
}

// sweepBases enumerates the program × mode × network axes every VM kind's
// sweep starts from; reorder chance 1/8 on every link.
func sweepBases(c *SweepConfig) (out []ProgCombo) {
	for _, prog := range c.Seeds {
		for _, mode := range c.Modes {
			for _, net := range c.NetSeeds {
				out = append(out, ProgCombo{ProgSeed: prog, Size: c.Size, Mode: mode,
					NetSeed: net, ReorderNum: 1, ReorderDen: 8})
			}
		}
	}
	return out
}

// clusterBase is what a VM kind's cluster run is given beyond its own
// schedule fields: the shared key part expanded, in one place, into the
// program, seeds and link shape it denotes. The seed derivation is the same
// for every kind, so a program keeps its environment and schedules across all
// the harnesses.
type clusterBase struct {
	Program *ftvm.Program
	Mode    ftvm.Mode
	// EnvSeed / PolicySeed seed the shared environment and the primary's
	// scheduling policy; RecoverSeed seeds the deliberately different
	// recovery policy.
	EnvSeed, PolicySeed, RecoverSeed int64
	// Net shapes every simulated link (Net.Seed drives latency and reorder
	// draws; zero delays get simnet's defaults).
	Net simnet.Config
	// Fault optionally wraps one endpoint in a transport fault
	// (drop/dup/partition/close...), injected at a deterministic operation
	// index with FaultSeed jitter — the channel-misbehaves axis. Which
	// endpoint is the kind's business.
	Fault     transport.FaultPlan
	FaultSeed int64
	// Dispatch selects the interpreter engine for the primary and the
	// recovery VM (default threaded, like every production path).
	Dispatch ftvm.Dispatch
}

func (p *ProgCombo) clusterBase(prog *ftvm.Program) (*clusterBase, error) {
	if prog == nil {
		return nil, errors.New("simtest: nil program")
	}
	envSeed, polRef, polRec := deriveSeeds(p.ProgSeed)
	return &clusterBase{
		Program:     prog,
		Mode:        p.Mode,
		EnvSeed:     envSeed,
		PolicySeed:  polRef,
		RecoverSeed: polRec,
		Net:         simnet.Config{Seed: p.NetSeed, ReorderNum: p.ReorderNum, ReorderDen: p.ReorderDen},
		Fault:       transport.FaultPlan{Kind: p.FaultKind, At: p.FaultAt},
		FaultSeed:   p.NetSeed ^ 0x0F0F0F0F,
	}, nil
}

// faulty wraps ep in the configured fault plan, if there is one.
func (c *clusterBase) faulty(ep transport.Endpoint, clk *clock.Virtual) transport.Endpoint {
	if c.Fault.Kind == transport.FaultNone {
		return ep
	}
	return transport.NewFaultyClock(ep, c.Fault, c.FaultSeed, clk)
}

// primaryConfig completes pc — the caller sets what differs: endpoint or
// backend, epoch, ack timeout — with what every primary here shares.
func (c *clusterBase) primaryConfig(clk *clock.Virtual, pc replication.PrimaryConfig) replication.PrimaryConfig {
	pc.Mode, pc.FlushEvery, pc.Clock = c.Mode, flushEvery, clk
	return pc
}

// newPrimaryVM builds the primary coordinator described by pc and the VM
// that runs the program under it.
func (c *clusterBase) newPrimaryVM(clk *clock.Virtual, environ *env.Env, pc replication.PrimaryConfig) (*vm.VM, error) {
	pc = c.primaryConfig(clk, pc)
	pc.Policy = vm.NewSeededPolicy(c.PolicySeed, minQuantum, maxQuantum)
	primary, err := replication.NewPrimary(pc)
	if err != nil {
		return nil, err
	}
	return primary.NewVM(vm.Config{
		Program:         c.Program,
		Env:             environ,
		MaxInstructions: maxInstructions,
		Dispatch:        c.Dispatch,
	})
}

// recoverConfig is how every recovery from a log is set up: the same program
// and environment, under a policy seeded differently from the primary's.
func (c *clusterBase) recoverConfig(environ *env.Env, policySeed int64) replication.RecoverConfig {
	return replication.RecoverConfig{
		Program:         c.Program,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(policySeed, recoverMinQ, recoverMaxQ),
		MaxInstructions: maxInstructions,
		Dispatch:        c.Dispatch,
	}
}

// onVirtualClock runs body as an actor on a fresh virtual clock under the
// real-time watchdog and returns what it returned. The calling goroutine is
// not an actor, so it may join with a plain WaitGroup without stalling
// virtual time.
func onVirtualClock[R any](body func(*clock.Virtual) (R, error)) (R, error) {
	clk := clock.NewVirtual()
	defer clk.Watchdog(wallLimit)()
	var (
		res R
		err error
		wg  sync.WaitGroup
	)
	wg.Add(1)
	clk.Go(func() {
		defer wg.Done()
		res, err = body(clk)
	})
	wg.Wait()
	return res, err
}

// killAtSend crashes a process at its at-th message offered to ep (1-based,
// counted below any fault wrapper; 0 = never) — the process-dies axis,
// positioned exactly rather than by polling. kill must be safe under the link
// lock (an atomic flag). deliver lets that final message escape onto the wire
// (a crash just after the write); otherwise it dies mid-send and the frame is
// lost.
func killAtSend(ep *simnet.Endpoint, at int, deliver bool, kill func()) {
	if at <= 0 {
		return
	}
	ep.SetSendHook(func(n int, _ []byte) bool {
		if n == at {
			kill()
			return deliver
		}
		return n < at // dead processes send nothing
	})
}

// serveBackup starts a cold backup for epoch on end as a clock actor and
// returns it with a wait for its serve verdict.
func (c *clusterBase) serveBackup(clk *clock.Virtual, end transport.Endpoint, epoch uint64) (*replication.Backup, func() (replication.ServeOutcome, error), error) {
	backup, err := replication.NewBackup(replication.BackupConfig{
		Mode:           c.Mode,
		Endpoint:       end,
		FailureTimeout: failureTimeout,
		Clock:          clk,
		Epoch:          epoch,
	})
	if err != nil {
		return nil, nil, err
	}
	done := clock.NewFlag(clk)
	var outcome replication.ServeOutcome
	var serveErr error
	clk.Go(func() {
		defer done.Set()
		outcome, serveErr = backup.Serve()
		if outcome.Failed() {
			// A real takeover tears the channel down; this also unblocks a
			// primary still parked on an ack for a swallowed frame.
			_ = end.Close()
		}
	})
	return backup, func() (replication.ServeOutcome, error) {
		done.Wait()
		return outcome, serveErr
	}, nil
}
