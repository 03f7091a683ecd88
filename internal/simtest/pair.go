package simtest

import (
	"fmt"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
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
			r.Outcome, r.Killed, r.Recovery != nil, r.Backup.RecordsLogged, r.Total, len(r.Console))
	}
	return err
}

// RunCluster plays the combo's schedule over prog to completion on a fresh
// virtual clock. Every field of the result the summary prints is a
// deterministic function of the combo (Total is simulated time). An error
// means the harness or the replication contract broke (e.g. the backup saw a
// clean halt but the primary failed for a reason other than a lost backup),
// not merely that the injected failure fired.
func RunCluster(cb Combo, prog *ftvm.Program) (*cluster.Result, error) {
	return clock.Drive(wallLimit, func(clk *clock.Virtual) (*cluster.Result, error) {
		cfg, err := cb.config(prog, clk)
		if err != nil {
			return nil, err
		}
		cfg.Recover.Dispatch, cfg.Capture = cb.Dispatch, cb.Capture
		var pRaw *simnet.Endpoint
		cfg.Link = cb.pairLink(clk, true, &pRaw)
		cfg.Kill = func(f *cluster.Faults) { killAtSend(pRaw, cb.KillAtSend, cb.KillDeliver, f.Process) }
		return cluster.Run(cfg)
	})
}
