package simtest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/simtest/simnet"
	"repro/internal/transport"
	"repro/internal/viewsvc"
	"repro/internal/vm"
	"repro/internal/wire"
)

// ViewCombo is one point of the three-node sweep: a generated program, a
// mode, and a two-stage fault schedule. A one-shard view directory forms {n1
// primary, n2 backup, n3 idle}; killing n1 promotes n2, which recruits n3
// through a snapshot + live-tail state transfer under the next epoch; killing
// n2 mid-transfer or mid-tail leaves n3 to run the final recovery alone.
// Surviving the whole schedule with reference-identical output is the n−1
// sequential-failure claim of the view-change design.
//
//	go run ./cmd/ftvm-sim -replay "prog=7,size=small,mode=sched,kill1=3,d1=0,kill2=5,d2=1,fault=none@0,inject=1,net=3,reorder=1/8"
type ViewCombo struct {
	// The net seed shapes both links; the second (n2→n3) folds a constant
	// into it so the two channels draw different schedules from one knob.
	// The fault wraps the *promoted* primary's endpoint toward the recruit —
	// channel misbehaviour on the new pair, including corrupting the acks the
	// state transfer depends on (FaultCorruptRecv).
	ProgCombo
	// Kill1AtSend / Kill1Deliver crash n1 on the first link (see
	// killAtSend); 0 = never, a clean pair run.
	Kill1AtSend  int
	Kill1Deliver bool
	// Kill2AtSend / Kill2Deliver crash the promoted n2 on the second link —
	// snapshot frames count, so small values die mid-transfer and larger
	// ones mid-tail.
	Kill2AtSend  int
	Kill2Deliver bool
	// InjectStale, when set, delivers a stale epoch-1 frame to n3 right
	// after the state transfer — a deposed primary's straggler. The recruit
	// must drop it without acknowledging (ViewClusterResult.StaleEpochs).
	InjectStale bool
}

// Kind implements Scenario.
func (cb *ViewCombo) Kind() Kind { return KindView }

func (cb *ViewCombo) fields() []field {
	fs := append(cb.progFields(), mark(one("kill1", &cb.Kill1AtSend)), one("d1", &cb.Kill1Deliver),
		one("kill2", &cb.Kill2AtSend), one("d2", &cb.Kill2Deliver), cb.faultField(), one("inject", &cb.InjectStale))
	return append(fs, cb.netFields()...)
}

// viewCombos: for every base, one clean run, then for each first-kill
// position a promotion-only run, a stale-injection run, one run per
// second-kill position, and one per channel fault on the promoted pair (a
// corrupted ack during transfer, a partition mid-tail).
func viewCombos(c *SweepConfig) (out []Scenario) {
	faults := []transport.FaultPlan{
		{Kind: transport.FaultCorruptRecv, At: 1},
		{Kind: transport.FaultPartitionSend, At: 4},
	}
	add := func(cb ViewCombo) { out = append(out, &cb) }
	for _, base := range sweepBases(c) {
		out = append(out, &ViewCombo{ProgCombo: base}) // clean run, no view change
		for i, k1 := range orDefault(c.Kills, 1, 3, 8) {
			v := ViewCombo{ProgCombo: base, Kill1AtSend: k1, Kill1Deliver: i%2 == 1}
			add(v) // promotion + transfer, no second failure
			inj := v
			inj.InjectStale = true
			add(inj)
			for j, k2 := range orDefault(c.Kills2, 1, 2, 6) {
				vv := v
				vv.Kill2AtSend, vv.Kill2Deliver = k2, j%2 == 0
				vv.InjectStale = j%2 == 1 // stale straggler racing a dying promoted primary
				add(vv)
			}
			for _, f := range faults {
				vf := v
				vf.FaultKind, vf.FaultAt = f.Kind, f.At
				add(vf)
			}
		}
	}
	return out
}

// run: beyond output equality the verdict asserts the epoch contract — when a
// stale frame was injected into a promoted configuration, the recruit must
// have dropped at least one stale-epoch frame.
func (cb *ViewCombo) run(prog *ftvm.Program, out *Outcome) error {
	r, err := RunViewCluster(*cb, prog)
	if r == nil {
		return err
	}
	out.Result, out.Console = r, r.Console
	out.Summary = fmt.Sprintf("view=%d killed1=%t promoted=%t killed2=%t takeover2=%t records2=%d records3=%d stale=%d vtime=%s console=%d",
		r.FinalView.Num, r.Killed1, r.Promoted, r.Killed2, r.SecondTakeover,
		r.Records2, r.Records3, r.StaleEpochs, r.VirtualElapsed, len(r.Console))
	if r.StaleInjected && r.StaleEpochs == 0 {
		out.Detail = "stale-epoch frame was injected but never dropped (recruit acked old-epoch traffic?)"
	}
	return err
}

// Node names of the simulated three-node replica set. View 1 pairs n1
// (primary) with n2 (backup); n3 idles until a failure recruits it.
const (
	nodeA = "n1"
	nodeB = "n2"
	nodeC = "n3"
)

// ViewClusterResult reports what one three-node schedule did. Every field is
// a deterministic function of the config.
type ViewClusterResult struct {
	// FinalView is the configuration the schedule ended in.
	FinalView viewsvc.View
	// Outcome1 is n2's serve verdict for view 1; Killed1 whether the first
	// kill landed before n1 completed.
	Outcome1 replication.ServeOutcome
	Killed1  bool
	// Promoted reports that n2 took over (view 2) and ran the state-transfer
	// promotion toward n3.
	Promoted bool
	// Outcome2 is n3's serve verdict for view 2 (zero value if no
	// promotion); Killed2 whether the second kill landed — during transfer
	// (no VM yet) or during the tail-teed replay.
	Outcome2 replication.ServeOutcome
	Killed2  bool
	// SecondTakeover reports that n3 ran the final recovery alone (view 3).
	SecondTakeover bool
	// Console is the observable output after the schedule fully played out.
	Console []string
	// Records2 / Records3 are n2's / n3's log lengths at their takeovers.
	Records2, Records3 int
	// StaleEpochs counts old-epoch frames n3 dropped without acking.
	StaleEpochs uint64
	// StaleInjected reports that the configured stale-epoch straggler was
	// actually delivered to n3 (the transfer can die first, or the kill can
	// swallow the probe itself — then nothing was injected to assert on).
	StaleInjected bool
	// PrimaryErr / TailErr are the n1 run's and the promotion's errors
	// verbatim (ErrBackupLost and ErrProtocolDesync are expected on many
	// schedules and are not harness failures).
	PrimaryErr error
	TailErr    error
	// VirtualElapsed is total simulated time across all phases.
	VirtualElapsed time.Duration

	// dir is retained for in-package tests that poke at the view directory.
	dir *viewsvc.ShardDirectory
}

// RunViewCluster plays the combo's three-node schedule over prog to completion
// on a fresh virtual clock. An error means the harness or the replication
// contract broke, not merely that an injected failure fired.
func RunViewCluster(cb ViewCombo, prog *ftvm.Program) (*ViewClusterResult, error) {
	return clock.Drive(wallLimit, func(clk *clock.Virtual) (*ViewClusterResult, error) {
		return runViewCluster(clk, prog, &cb)
	})
}

func runViewCluster(clk *clock.Virtual, prog *ftvm.Program, cb *ViewCombo) (*ViewClusterResult, error) {
	cfg, err := cb.config(prog, clk)
	if err != nil {
		return nil, err
	}
	environ := cfg.Recover.Env
	dir := viewsvc.NewShardDirectory(viewsvc.Config{Clock: clk})
	dir.Join(nodeA)
	dir.Join(nodeB)
	dir.Join(nodeC)
	views, err := dir.Form(1) // one replica set: the directory's one shard
	if err != nil {
		return nil, err
	}
	view1 := views[0]
	res := &ViewClusterResult{dir: dir}
	t0 := clk.Now()
	finish := func() (*ViewClusterResult, error) {
		res.VirtualElapsed = clk.Since(t0)
		res.Console = environ.Console().Lines()
		res.FinalView = dir.Shard(0)
		return res, nil
	}

	// ---- View 1: n1 primary, n2 backup, n3 idle — a pair run under the
	// view's epoch, its fault kept for the promoted pair. A failed run stops
	// at n2's log. ----
	var p1Raw *simnet.Endpoint
	cfg.Link = cb.pairLink(clk, false, &p1Raw)
	cfg.Primary.Epoch, cfg.SkipRecovery = view1.Num, true
	cfg.Kill = func(f *cluster.Faults) { killAtSend(p1Raw, cb.Kill1AtSend, cb.Kill1Deliver, f.Process) }
	r1, err := cluster.Run(cfg)
	if r1 == nil {
		return nil, err
	}
	res.Outcome1, res.Killed1, res.PrimaryErr = r1.Outcome, r1.Killed, r1.PrimaryErr
	if err != nil {
		return res, fmt.Errorf("view 1: %w", err)
	}
	if r1.Outcome == replication.OutcomePrimaryCompleted {
		return finish()
	}

	// ---- View change: n2 reports the failure and acquires the promotion
	// before any of its outputs may count as committed in view 2. ----
	if _, err := dir.ReportFailure(nodeB, nodeA); err != nil {
		return res, fmt.Errorf("report n1 failure: %w", err)
	}
	view2 := dir.Shard(0)
	if view2.Primary != nodeB || view2.Backup != nodeC {
		return res, fmt.Errorf("view after n1 death = %+v, want {n2, n3}", view2)
	}
	if err := dir.AcquirePromotion(nodeB, 0, view2.Num); err != nil {
		return res, fmt.Errorf("n2 promotion: %w", err)
	}
	res.Promoted = true
	res.Records2 = r1.Cold.Store().Len()

	// ---- View 2: n2 promoted, n3 recruited via state transfer. ----
	net2 := cb.net()
	net2.Seed ^= 0x9E3779B9
	p2Raw, b2End := simnet.Link(clk, net2)
	backup3, wait2, err := cluster.Serve(replication.BackupConfig{
		Mode: cb.Mode, Endpoint: b2End, FailureTimeout: failureTimeout, Clock: clk, Epoch: view2.Num,
	})
	if err != nil {
		return res, err
	}

	// The promoted VM is built inside Recover; the kill hook reaches it via
	// an atomic cell (heartbeat sends can run the hook off this goroutine).
	// A kill that fires before the cell is set lands mid-transfer: nothing
	// to kill yet, but subsequent sends are swallowed, which aborts the
	// snapshot on its ack and fails the promotion — the intended crash.
	var machine2 atomic.Pointer[vm.VM]
	var kill2Fired atomic.Bool
	killAtSend(p2Raw, cb.Kill2AtSend, cb.Kill2Deliver, func() {
		if m := machine2.Load(); m != nil {
			m.Kill()
		}
		kill2Fired.Store(true)
	})

	rc := cb.recoverConfig(prog, environ, 0)
	rc.OnVM = func(v *vm.VM) { machine2.Store(v) }
	// The tail primary tees what the promoted VM does past the log; it
	// schedules no VM of its own, so it takes no policy.
	tail := cfg.Primary
	tail.Endpoint, tail.Epoch, tail.Policy = cb.faulty(p2Raw, clk), view2.Num, nil
	prom, err := replication.PreparePromotion(r1.Cold, rc, tail)
	if err != nil {
		return res, fmt.Errorf("prepare promotion: %w", err)
	}
	if cb.InjectStale {
		maxDelay := net2.MaxDelay
		if maxDelay == 0 {
			minDelay := net2.MinDelay
			if minDelay == 0 {
				minDelay = 50 * time.Microsecond // simnet's default floor
			}
			maxDelay = 10 * minDelay
		}
		prom.AfterTransfer = func(*replication.Primary) error {
			// A deposed primary's straggler arriving on the new pair's
			// channel: an epoch-1 frame, ack demanded. The recruit must
			// drop it without acknowledging — an ack would let the old
			// epoch satisfy an output commit. Sent below the fault wrapper
			// so the fault plan cannot eat the probe itself.
			var buf wire.Buffer
			if err := buf.Append(&wire.Heartbeat{Seq: 999}); err != nil {
				return err
			}
			deadBefore := kill2Fired.Load()
			err := p2Raw.Send(wire.EncodeFrame(&wire.Frame{
				Seq: 999, Epoch: view1.Num, AckWanted: true, Payload: buf.Bytes(),
			}))
			if err != nil {
				return err
			}
			// The probe only counts if it escaped the kill hook: not after
			// the process died, and on the fatal send only with delivery.
			deadAfter := kill2Fired.Load()
			res.StaleInjected = !deadBefore && (!deadAfter || cb.Kill2Deliver)
			if res.StaleInjected {
				// Park past the link's delay bound so the recruit has
				// provably processed (and dropped) the probe before replay
				// begins — StaleEpochs is then assertable regardless of how
				// the rest of the schedule ends.
				clk.Sleep(2 * maxDelay)
			}
			return nil
		}
	}

	vm2, _, tailErr := prom.Run()
	outcome2, serve2Err := wait2()

	res.TailErr = tailErr
	res.Outcome2 = outcome2
	res.Records3 = backup3.Store().Len()
	res.StaleEpochs = backup3.Stats().StaleEpochs
	if serve2Err != nil {
		return res, fmt.Errorf("n3 serve: %w", serve2Err)
	}
	res.Killed2 = kill2Fired.Load() || (vm2 != nil && vm2.Killed())
	if tailErr != nil && !res.Killed2 && !errors.Is(tailErr, replication.ErrBackupLost) {
		return res, fmt.Errorf("promotion run: %w", tailErr)
	}
	died2 := res.Killed2 || tailErr != nil
	if !died2 || outcome2 == replication.OutcomePrimaryCompleted {
		// Either the promoted execution completed cleanly, or the kill
		// landed after the halt marker shipped — the console is complete
		// in both cases.
		return finish()
	}
	if !outcome2.Failed() {
		return res, fmt.Errorf("n3 outcome %v with promoted n2 err %v", outcome2, tailErr)
	}

	// ---- View 3: n3, holding snapshot + tail, recovers alone. ----
	if _, err := dir.ReportFailure(nodeC, nodeB); err != nil {
		return res, fmt.Errorf("report n2 failure: %w", err)
	}
	view3 := dir.Shard(0)
	if view3.Primary != nodeC {
		return res, fmt.Errorf("view after n2 death = %+v, want n3 primary", view3)
	}
	if err := dir.AcquirePromotion(nodeC, 0, view3.Num); err != nil {
		return res, fmt.Errorf("n3 promotion: %w", err)
	}
	res.SecondTakeover = true
	if _, _, err := backup3.Recover(cb.recoverConfig(prog, environ, 0x5D)); err != nil {
		return res, fmt.Errorf("n3 recovery: %w", err)
	}
	return finish()
}
