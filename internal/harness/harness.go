// Package harness drives the paper's experiments (§5): for every benchmark
// it measures the unreplicated baseline, the replicated-lock-acquisition and
// replicated-thread-scheduling primaries (with the overhead decomposition of
// Figures 3 and 4), and the backup's log-replay time (the backup columns of
// Figure 2), and collects the per-benchmark event counts of Table 2. Runs
// ship over the raw in-process pipe; the paper's network is charged
// afterwards, as arithmetic on each run's exact counts (link).
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
	// Benchmarks restricts the set (nil = all six, paper order).
	Benchmarks []string
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

// The paper's testbed link (two machines on 100 Mbps Ethernet, 2003-era
// protocol stacks, against a 400 MHz interpreted JVM), calibrated so the
// per-record shipping cost relative to this interpreter's speed matches it:
// every message costs linkPerMsg, every KB shipped linkPerKB.
const (
	linkPerMsg = 150 * time.Microsecond
	linkPerKB  = 450 * time.Microsecond
)

// link is what the modelled link adds to a primary's run, from its exact
// counts instead of a wait: ship for the frames and their bytes, ack for the
// acknowledgements its output commits awaited.
func link(m replication.PrimaryMetrics) (ship, ack time.Duration) {
	ship = time.Duration(m.FramesSent)*linkPerMsg + time.Duration(m.BytesSent)*linkPerKB/1024
	return ship, time.Duration(m.AcksAwaited) * linkPerMsg
}

// linked is the primary's execution time with the modelled link charged.
func (m *ModeResult) linked() time.Duration {
	ship, ack := link(m.Metrics)
	return m.PrimaryElapsed + ship + ack
}

// Overheads decomposes the primary's slowdown relative to the baseline, as
// in Figures 3/4 (fractions of the baseline execution time), with the
// modelled link's shipping charged to Communication and its acknowledgements
// to Pessimism.
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
	ship, ack := link(m.Metrics)
	total := m.linked() - baseline
	comm := m.Metrics.Communication + ship
	rec := m.Metrics.Record
	pess := m.Metrics.Pessimism + ack
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
	return r.norm(r.Lock.PrimaryElapsed), r.norm(r.Lock.ReplayElapsed),
		r.norm(r.Sched.PrimaryElapsed), r.norm(r.Sched.ReplayElapsed)
}

// norm is d normalized to the baseline (0 without one).
func (r *BenchResult) norm(d time.Duration) float64 {
	if r.Baseline <= 0 {
		return 0
	}
	return float64(d) / float64(r.Baseline)
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
