package ftvm

import (
	"time"

	"repro/internal/env"
	"repro/internal/replication"
)

// WarmResult describes a warm-replicated run: the primary's metrics plus the
// warm backup's concurrent execution report.
type WarmResult struct {
	PrimaryStats   Stats
	PrimaryElapsed time.Duration
	Primary        replication.PrimaryMetrics
	Outcome        replication.ServeOutcome
	Killed         bool
	Warm           *replication.WarmResult
	Console        []string
	Env            *env.Env
}

// RunWarmReplicated executes prog with a primary and a *warm* backup: the
// backup executes the program concurrently, consuming the log as it arrives
// (semi-active replication — the paper's "keeping the backup updated would
// require only minor modifications", §1). With a non-nil trigger the primary
// is killed mid-run; the warm backup, already mid-execution, finishes the
// program with the usual exactly-once output guarantees. A warm backup is the
// pair's backup: Options.Backend == BackendConsensus and Options.CaptureLog
// are refused with ErrWarmOption.
func RunWarmReplicated(prog *Program, mode Mode, trigger KillTrigger, opts Options) (*WarmResult, error) {
	res, log, err := run(prog, mode, opts, trigger, true)
	if res == nil {
		return nil, err
	}
	return &WarmResult{
		PrimaryStats:   res.Stats,
		PrimaryElapsed: res.Elapsed,
		Primary:        res.Primary,
		Outcome:        res.Outcome,
		Killed:         res.Killed,
		Warm:           log.warm,
		Console:        res.Console,
		Env:            res.Env,
	}, err
}
