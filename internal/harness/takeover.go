package harness

import (
	"fmt"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/programs"
)

// TakeoverResult compares failover latency between the paper's cold backup
// (store the log; on failure re-execute from the initial state) and the
// warm-backup extension (execute concurrently; on failure just keep going).
type TakeoverResult struct {
	Benchmark string
	// KillAfter is the number of logged records after which the primary
	// was killed.
	KillAfter int
	// ColdTakeover is the time from failure detection until the cold
	// backup finished the program (full gated replay + live tail).
	ColdTakeover time.Duration
	// WarmTakeover is the time from failure detection until the warm
	// backup finished the program (it was already mid-execution).
	WarmTakeover time.Duration
	// WarmCaughtUp reports whether the warm backup had consumed the whole
	// log at the moment of failure.
	WarmCaughtUp bool
}

// MeasureTakeover runs the benchmark twice with the same failure point: once
// with a cold backup, once with a warm backup, and reports both takeover
// latencies. The kill point is a fraction (0..1) of the benchmark's total
// log length (measured by a probe run).
func MeasureTakeover(name string, killFraction float64, cfg Config) (*TakeoverResult, error) {
	cfg.fill()
	prog, err := programs.Compile(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	opts := func() ftvm.Options {
		return ftvm.Options{
			EnvSeed:    cfg.EnvSeed,
			PolicySeed: cfg.PolicySeed,
			FlushEvery: 64, // fine batches so kill points are precise
			Clock:      cfg.Clock,
		}
	}

	// Probe: total log length of a clean run.
	probe, err := ftvm.RunReplicated(prog, ftvm.ModeLock, opts())
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	total := int(probe.Primary.RecordsLogged)
	killAt := int(float64(total) * killFraction)
	if killAt < 1 {
		killAt = 1
	}
	res := &TakeoverResult{Benchmark: name, KillAfter: killAt}

	// Cold: RunWithFailover's recovery time is the takeover latency.
	for attempt := 0; ; attempt++ {
		cold, err := ftvm.RunWithFailover(prog, ftvm.ModeLock, ftvm.KillAfterRecords(killAt), opts())
		if err != nil {
			return nil, fmt.Errorf("cold failover: %w", err)
		}
		if cold.Killed && cold.Recovery != nil {
			res.ColdTakeover = cold.RecoveryElapsed
			break
		}
		if attempt > 10 {
			return nil, fmt.Errorf("cold kill never landed")
		}
	}

	// Warm: takeover latency is the time between the primary's death and
	// the warm backup finishing — approximated as warm total wall time
	// minus the primary's portion (the warm backup runs concurrently, so
	// we time the residual tail directly).
	for attempt := 0; ; attempt++ {
		start := cfg.Clock.Now()
		warm, err := ftvm.RunWarmReplicated(prog, ftvm.ModeLock, ftvm.KillAfterRecords(killAt), opts())
		if err != nil {
			return nil, fmt.Errorf("warm failover: %w", err)
		}
		if warm.Killed && warm.Warm != nil {
			elapsedTotal := cfg.Clock.Since(start)
			// The primary died at Elapsed; everything after is the
			// warm backup finishing alone.
			res.WarmTakeover = elapsedTotal - warm.Elapsed
			if res.WarmTakeover < 0 {
				res.WarmTakeover = 0
			}
			res.WarmCaughtUp = warm.Warm.CaughtUpAtClose
			break
		}
		if attempt > 10 {
			return nil, fmt.Errorf("warm kill never landed")
		}
	}
	return res, nil
}

// TakeoverReport renders takeover measurements.
func TakeoverReport(results []*TakeoverResult) string {
	var sb strings.Builder
	sb.WriteString("Takeover latency after a mid-run primary failure (extension experiment)\n")
	sb.WriteString(fmt.Sprintf("%-10s %10s %15s %15s %10s\n",
		"benchmark", "kill@rec", "cold takeover", "warm takeover", "caught up"))
	for _, r := range results {
		sb.WriteString(fmt.Sprintf("%-10s %10d %15s %15s %10v\n",
			r.Benchmark, r.KillAfter,
			r.ColdTakeover.Round(time.Millisecond),
			r.WarmTakeover.Round(time.Millisecond),
			r.WarmCaughtUp))
	}
	sb.WriteString("\nThe cold backup replays the whole log before going live; the warm\nbackup executed alongside the primary and only finishes the tail.\n")
	return sb.String()
}
