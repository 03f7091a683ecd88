package main

import (
	"fmt"

	ftvm "repro"
)

// runConfig is what the command line decides about one run.
type runConfig struct {
	seed   uint64
	rounds int  // timed rounds of the end-to-end run
	passes int  // cold starts behind setup_s
	iters  int  // iterations of each phase in the traced run
	quick  bool // shrink the traced run's micro measurements (smoke test)
	// corruptOracle damages the reference after it is built; every
	// comparison must then fail. The smoke test uses it to show that the
	// checks can fail.
	corruptOracle bool
}

const mb = 1e6

// measureVM is the untraced end-to-end run of a VM workload. Its phases,
// the cold start behind setup_s among them, are interleaved round-robin so
// that machine drift hits each alike, and the iteration counts are fixed so
// that two commits do identical work.
func measureVM(w workload, cfg runConfig) (*report, error) {
	rep := newReport(w.name)
	run := &vmRun{spec: *w.vm, seed: int64(cfg.seed)}
	if err := run.buildOracle(); err != nil {
		return nil, err
	}
	if cfg.corruptOracle {
		run.console[0] += " (corrupted)"
	}

	// One untimed recovery proves the captured prefix replays to the
	// reference before anything is timed against it, and warms that path up
	// the way the capture run warmed the service path.
	if _, err := run.recoverFrom(run.log[:run.half], nil, -1, 0); err != nil && !cfg.corruptOracle {
		return nil, fmt.Errorf("captured log does not replay: %w", err)
	}

	for i := 0; i < cfg.rounds; i++ {
		s, _, err := timed(func() error {
			cold, err := run.coldStart(nil, -1, i)
			if err != nil {
				return err
			}
			return run.sameConsole(cold.res.Console, true)
		})
		if rep.op("setup", err) {
			rep.add("setup_s", s)
		}
		s, _, err = timed(func() error {
			_, err := run.baseline(ftvm.DispatchThreaded)
			return err
		})
		if rep.op("baseline", err) {
			rep.add("baseline_s", s)
		}
		s, alloc, err := timed(func() error {
			_, err := run.service()
			return err
		})
		if rep.op("service", err) {
			rep.add("service_s", s)
			rep.add("alloc_mb", float64(alloc)/mb)
		}
		s, _, err = timed(func() error {
			_, err := run.recoverFrom(run.log[:run.half], nil, -1, i)
			return err
		})
		if rep.op("recover", err) {
			rep.add("recover_s", s)
		}
	}
	run.noteLeaderships(rep)
	return rep, nil
}
