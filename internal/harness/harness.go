// Package harness drives the paper's experiments (§5): for every benchmark
// it measures the unreplicated baseline, the replicated-lock-acquisition and
// replicated-thread-scheduling primaries (with the overhead decomposition of
// Figures 3 and 4), and the backup's log-replay time (the backup columns of
// Figure 2), and collects the per-benchmark event counts of Table 2.
package harness

import (
	"fmt"
	"time"

	ftvm "repro"
	"repro/internal/bytecode/pairfreq"
	"repro/internal/env"
	"repro/internal/programs"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/vm"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies every workload (default 1, the paper-shaped sizes).
	Scale int
	// EnvSeed seeds the environments (all runs of one benchmark share it).
	EnvSeed int64
	// PolicySeed seeds the primary scheduling policy.
	PolicySeed int64
	// NetPerMsg/NetPerKB simulate the testbed network, calibrated so the
	// per-record shipping cost relative to our interpreter's speed matches
	// the paper's testbed (100 Mbps Ethernet + 2003-era protocol stacks
	// against a 400 MHz interpreted JVM): 150µs per message plus 450µs per
	// KB. Set NoNetwork for a raw in-process pipe.
	NetPerMsg time.Duration
	NetPerKB  time.Duration
	NoNetwork bool
	// Benchmarks restricts the set (nil = all six, paper order).
	Benchmarks []string
	// Dispatch selects the interpreter engine for every measured VM
	// (default: the threaded fast tier).
	Dispatch vm.Dispatch
	// Repeats measures each configuration this many times and keeps the
	// fastest (default 2; the first run pays allocator/cache warm-up).
	Repeats int
	// Clock is the time source for the runs and the takeover latency
	// measurements. Nil means wall time; internal/simtest supplies a
	// virtual clock for deterministic takeover tests.
	Clock clock.Clock
}

func (c *Config) fill() {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.EnvSeed == 0 {
		c.EnvSeed = 20030622 // DSN 2003
	}
	if c.PolicySeed == 0 {
		c.PolicySeed = 42
	}
	if c.NoNetwork {
		c.NetPerMsg, c.NetPerKB = 0, 0
	} else {
		if c.NetPerMsg == 0 {
			c.NetPerMsg = 150 * time.Microsecond
		}
		if c.NetPerKB == 0 {
			c.NetPerKB = 450 * time.Microsecond
		}
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = programs.Names()
	}
	if c.Repeats < 1 {
		c.Repeats = 2
	}
	c.Clock = clock.Or(c.Clock)
}

// ModeResult holds one replication mode's measurements for a benchmark.
type ModeResult struct {
	PrimaryElapsed time.Duration
	ReplayElapsed  time.Duration
	Metrics        replication.PrimaryMetrics
	Replay         *replication.RecoveryReport
	PrimaryStats   vm.Stats
}

// Overheads decomposes the primary's slowdown relative to the baseline, as
// in Figures 3/4 (fractions of the baseline execution time).
type Overheads struct {
	Communication float64
	Record        float64 // lock-acquire (Fig 3) or rescheduling (Fig 4)
	Pessimism     float64
	Misc          float64
}

// Decompose computes the overhead fractions against baseline.
func (m *ModeResult) Decompose(baseline time.Duration) Overheads {
	if baseline <= 0 {
		return Overheads{}
	}
	total := m.PrimaryElapsed - baseline
	comm := m.Metrics.Communication
	rec := m.Metrics.Record
	pess := m.Metrics.Pessimism
	misc := total - comm - rec - pess
	if misc < 0 {
		misc = 0
	}
	b := float64(baseline)
	return Overheads{
		Communication: float64(comm) / b,
		Record:        float64(rec) / b,
		Pessimism:     float64(pess) / b,
		Misc:          float64(misc) / b,
	}
}

// BenchResult is one benchmark's full measurement set.
type BenchResult struct {
	Name          string
	Baseline      time.Duration
	BaselineStats vm.Stats
	Lock          ModeResult
	Sched         ModeResult
}

// Normalized returns the Figure 2 bars: lock-primary, lock-backup,
// ts-primary, ts-backup execution times normalized to the baseline.
func (r *BenchResult) Normalized() (lockP, lockB, tsP, tsB float64) {
	b := float64(r.Baseline)
	if b <= 0 {
		return 0, 0, 0, 0
	}
	return float64(r.Lock.PrimaryElapsed) / b,
		float64(r.Lock.ReplayElapsed) / b,
		float64(r.Sched.PrimaryElapsed) / b,
		float64(r.Sched.ReplayElapsed) / b
}

// RunBenchmark measures one benchmark under baseline, lock and sched modes.
func RunBenchmark(name string, cfg Config) (*BenchResult, error) {
	cfg.fill()
	prog, err := programs.Compile(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res := &BenchResult{Name: name}

	// Interleave baseline/lock/sched measurements across rounds and keep
	// the fastest of each; round 0 is warm-up and discarded (process
	// performance drifts, so ordering must not bias any configuration).
	for round := 0; round <= cfg.Repeats; round++ {
		record := round > 0
		base, err := ftvm.Run(prog, ftvm.Options{
			EnvSeed:    cfg.EnvSeed,
			PolicySeed: cfg.PolicySeed,
			Dispatch:   cfg.Dispatch,
		})
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", name, err)
		}
		if record && (res.Baseline == 0 || base.Elapsed < res.Baseline) {
			res.Baseline = base.Elapsed
		}
		res.BaselineStats = base.Stats

		for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched} {
			mr := &res.Lock
			if mode == ftvm.ModeSched {
				mr = &res.Sched
			}
			envFactory := func() *env.Env { return env.New(cfg.EnvSeed) }
			primary, replay, err := ftvm.MeasureReplay(prog, mode, ftvm.Options{
				EnvSeed:    cfg.EnvSeed,
				PolicySeed: cfg.PolicySeed,
				NetPerMsg:  cfg.NetPerMsg,
				NetPerKB:   cfg.NetPerKB,
				Dispatch:   cfg.Dispatch,
			}, envFactory)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", name, mode, err)
			}
			if !record {
				continue
			}
			if mr.PrimaryElapsed == 0 || primary.Elapsed < mr.PrimaryElapsed {
				mr.PrimaryElapsed = primary.Elapsed
				mr.Metrics = primary.Primary
			}
			if mr.ReplayElapsed == 0 || replay.Elapsed < mr.ReplayElapsed {
				mr.ReplayElapsed = replay.Elapsed
			}
			mr.Replay = replay.Report
			mr.PrimaryStats = primary.Stats
		}
	}
	return res, nil
}

// PairFreq runs every configured benchmark once (baseline, unreplicated)
// under the pair-frequency profiler and returns each program's dynamic
// (executed-pair) counter by name, and the merged static (adjacent-slot)
// counter. The dynamic counters are what size the superinstruction fusion
// table (merged) and the interpreter's cold table (per program): profiling
// steps the unfused stream, so it sees base opcodes only.
func PairFreq(cfg Config) (dynamic map[string]*pairfreq.Counter, static *pairfreq.Counter, err error) {
	cfg.fill()
	dynamic, static = map[string]*pairfreq.Counter{}, &pairfreq.Counter{}
	for _, name := range cfg.Benchmarks {
		prog, err := programs.Compile(name, cfg.Scale)
		if err != nil {
			return nil, nil, err
		}
		static.AddProgram(prog)
		dynamic[name] = &pairfreq.Counter{}
		machine, err := vm.New(vm.Config{
			Program:     prog,
			Env:         env.New(cfg.EnvSeed),
			Coordinator: vm.NewDefaultCoordinator(vm.NewSeededPolicy(cfg.PolicySeed, 1024, 8192)),
			PairCounter: dynamic[name],
		})
		if err != nil {
			return nil, nil, err
		}
		if err := machine.Run(); err != nil {
			return nil, nil, fmt.Errorf("%s pairfreq run: %w", name, err)
		}
	}
	return dynamic, static, nil
}

// RunAll measures every configured benchmark.
func RunAll(cfg Config) ([]*BenchResult, error) {
	cfg.fill()
	out := make([]*BenchResult, 0, len(cfg.Benchmarks))
	for _, name := range cfg.Benchmarks {
		r, err := RunBenchmark(name, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
