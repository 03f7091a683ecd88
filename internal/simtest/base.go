package simtest

import (
	"errors"
	"time"

	ftvm "repro"
	"repro/internal/cluster"
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
	// wallLimit is the real-time watchdog on one whole simulation
	// (clock.Drive): a scheduling bug panics instead of hanging the sweep.
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

// config expands the shared key part, in one place, into the cluster run it
// denotes on clk: the program, the seeds and the constants above. The seed
// derivation is the same for every kind, so a program keeps its environment
// and schedules across all the harnesses. Each kind adds its link, its hook
// and what else differs.
func (p *ProgCombo) config(prog *ftvm.Program, clk *clock.Virtual) (cluster.Config, error) {
	if prog == nil {
		return cluster.Config{}, errors.New("simtest: nil program")
	}
	envSeed, polRef, _ := deriveSeeds(p.ProgSeed)
	return cluster.Config{
		Primary: replication.PrimaryConfig{
			Mode:       p.Mode,
			Policy:     vm.NewSeededPolicy(polRef, minQuantum, maxQuantum),
			FlushEvery: flushEvery,
			AckTimeout: ackTimeout,
			Clock:      clk,
		},
		Recover:        p.recoverConfig(prog, env.New(envSeed), 0),
		FailureTimeout: failureTimeout,
		// Every kind's links misbehave on purpose.
		FailStopOnLoss: true,
	}, nil
}

// recoverConfig is how every recovery from a log is set up: the same program
// and environment, under a policy seeded differently from the primary's
// (folded with fold, for a second takeover that must differ again).
func (p *ProgCombo) recoverConfig(prog *ftvm.Program, environ *env.Env, fold int64) replication.RecoverConfig {
	_, _, polRec := deriveSeeds(p.ProgSeed)
	return replication.RecoverConfig{
		Program:         prog,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(polRec^fold, recoverMinQ, recoverMaxQ),
		MaxInstructions: maxInstructions,
	}
}

// net shapes every simulated link of the combo: the seed drives latency and
// reorder draws; zero delays get simnet's defaults.
func (p *ProgCombo) net() simnet.Config {
	return simnet.Config{Seed: p.NetSeed, ReorderNum: p.ReorderNum, ReorderDen: p.ReorderDen}
}

// faulty wraps ep in the combo's channel fault, if it has one: a transport
// fault (drop/dup/partition/close...) injected at a deterministic operation
// index with jitter seeded from the net seed. Which endpoint is the kind's
// business.
func (p *ProgCombo) faulty(ep transport.Endpoint, clk *clock.Virtual) transport.Endpoint {
	if p.FaultKind == transport.FaultNone {
		return ep
	}
	return transport.NewFaultyClock(ep, transport.FaultPlan{Kind: p.FaultKind, At: p.FaultAt}, p.NetSeed^0x0F0F0F0F, clk)
}

// pairLink is a simulated pair's link: one simnet channel, whose primary end
// it keeps in *raw for a kill hook, wrapped in the combo's fault when
// faulty.
func (p *ProgCombo) pairLink(clk *clock.Virtual, faulty bool, raw **simnet.Endpoint) func(int, int) (transport.Endpoint, transport.Endpoint) {
	return func(int, int) (transport.Endpoint, transport.Endpoint) {
		pEnd, bEnd := simnet.Link(clk, p.net())
		*raw = pEnd
		if faulty {
			return p.faulty(pEnd, clk), bEnd
		}
		return pEnd, bEnd
	}
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
