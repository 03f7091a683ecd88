package ftvm

import (
	"fmt"

	"repro/internal/cluster"
)

// WarmResult describes a warm-replicated run: Stats and Elapsed are the
// primary's, Warm the warm backup's concurrent execution report.
type WarmResult = ReplicatedResult

// RunWarmReplicated executes prog with a primary and a *warm* backup: the
// backup executes the program concurrently, consuming the log as it arrives
// (semi-active replication — the paper's "keeping the backup updated would
// require only minor modifications", §1). With a non-nil trigger the primary
// is killed mid-run; the warm backup, already mid-execution, finishes the
// program with the usual exactly-once output guarantees. A warm backup is the
// pair's backup: Options.Backend == BackendConsensus and Options.CaptureLog
// are refused with ErrWarmOption.
func RunWarmReplicated(prog *Program, mode Mode, trigger KillTrigger, opts Options) (*WarmResult, error) {
	switch {
	case opts.Backend == BackendConsensus:
		return nil, fmt.Errorf("%w: BackendConsensus", ErrWarmOption)
	case opts.CaptureLog != "":
		return nil, fmt.Errorf("%w: CaptureLog", ErrWarmOption)
	}
	cfg := opts.config(prog, mode, trigger)
	cfg.Topology = cluster.WarmPair
	return cluster.Run(cfg)
}
