package simtest

import (
	"errors"
	"testing"

	ftvm "repro"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/viewsvc"
)

// viewProgram pins the workload the view-cluster tests share — the same
// program/net seeds as the pair takeover tests, so the two harnesses
// cross-check each other on identical executions.
func viewProgram(t *testing.T) (*ftvm.Program, []string, ViewCombo) {
	t.Helper()
	prog, ref, pairCb := takeoverProgram(t)
	return prog, ref, ViewCombo{ProgCombo: pairCb.ProgCombo}
}

// TestViewClusterClean: no failures — the pair completes under view 1, n3 is
// never recruited, and the output matches the failure-free reference.
func TestViewClusterClean(t *testing.T) {
	prog, ref, cb := viewProgram(t)
	res, err := RunViewCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed1 || res.Promoted || res.SecondTakeover {
		t.Fatalf("clean run mutated the view: killed1=%t promoted=%t takeover2=%t",
			res.Killed1, res.Promoted, res.SecondTakeover)
	}
	if res.FinalView.Num != 1 {
		t.Fatalf("final view %d, want 1", res.FinalView.Num)
	}
	mustAgree(t, ref, res.Console, "clean view-cluster output")
}

// TestViewClusterPromotionRecruitsBackup: killing n1 promotes n2, which must
// recruit n3 through the snapshot + live-tail transfer before completing.
// The recruit ends the schedule holding a non-empty log under epoch 2, and
// the promoted execution's output matches the reference exactly once.
func TestViewClusterPromotionRecruitsBackup(t *testing.T) {
	prog, ref, cb := viewProgram(t)
	cb.Kill1AtSend = 4
	res, err := RunViewCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed1 || !res.Promoted {
		t.Fatalf("killed1=%t promoted=%t, want both", res.Killed1, res.Promoted)
	}
	if res.SecondTakeover {
		t.Fatal("no second failure was scheduled, but n3 took over")
	}
	if res.FinalView.Num != 2 {
		t.Fatalf("final view %d, want 2", res.FinalView.Num)
	}
	if res.Outcome2 != replication.OutcomePrimaryCompleted {
		t.Fatalf("recruit outcome %v, want clean completion", res.Outcome2)
	}
	if res.Records3 == 0 {
		t.Fatal("recruit logged nothing; the state transfer did not happen")
	}
	if res.Records3 < res.Records2 {
		t.Fatalf("recruit log (%d) shorter than the snapshot source (%d): transfer incomplete",
			res.Records3, res.Records2)
	}
	mustAgree(t, ref, res.Console, "promoted execution output")
}

// TestViewClusterSurvivesSequentialFailures is the n−1 claim: kill n1 (n2
// promoted, n3 recruited via state transfer), then kill the promoted n2
// mid-tail — n3, holding snapshot + tail, recovers alone under view 3 and
// the surviving output is byte-identical to the standalone reference.
func TestViewClusterSurvivesSequentialFailures(t *testing.T) {
	prog, ref, cb := viewProgram(t)
	cb.Kill1AtSend = 3
	cb.Kill2AtSend = 6
	cb.Kill2Deliver = true
	res, err := RunViewCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed1 || !res.Promoted || !res.Killed2 || !res.SecondTakeover {
		t.Fatalf("killed1=%t promoted=%t killed2=%t takeover2=%t, want all",
			res.Killed1, res.Promoted, res.Killed2, res.SecondTakeover)
	}
	if res.FinalView.Num != 3 || res.FinalView.Primary != nodeC {
		t.Fatalf("final view %+v, want n3 leading view 3", res.FinalView)
	}
	mustAgree(t, ref, res.Console, "n-1 survival output")
}

// TestViewClusterKillDuringTransfer: the promoted primary dies on the very
// first frame of the state transfer, so the snapshot never lands. n3 must
// still finish the job from whatever prefix it holds (possibly nothing),
// producing the reference output exactly once.
func TestViewClusterKillDuringTransfer(t *testing.T) {
	prog, ref, cb := viewProgram(t)
	cb.Kill1AtSend = 4
	cb.Kill2AtSend = 1 // the transfer's first frame dies with n2
	res, err := RunViewCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || !res.Killed2 || !res.SecondTakeover {
		t.Fatalf("promoted=%t killed2=%t takeover2=%t, want all", res.Promoted, res.Killed2, res.SecondTakeover)
	}
	if res.TailErr == nil || !errors.Is(res.TailErr, replication.ErrBackupLost) {
		t.Fatalf("transfer death surfaced as %v, want ErrBackupLost", res.TailErr)
	}
	mustAgree(t, ref, res.Console, "mid-transfer death output")
}

// TestViewClusterRejectsStaleEpochFrame: after the state transfer a deposed
// primary's epoch-1 frame (ack demanded) is delivered to the recruit. The
// recruit must drop it without acknowledging — the StaleEpochs counter is
// the drop's witness, and the run must still complete with reference output
// (the straggler perturbed nothing).
func TestViewClusterRejectsStaleEpochFrame(t *testing.T) {
	prog, ref, cb := viewProgram(t)
	cb.Kill1AtSend = 4
	cb.InjectStale = true
	res, err := RunViewCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || !res.StaleInjected {
		t.Fatalf("promoted=%t injected=%t; the probe never reached the recruit",
			res.Promoted, res.StaleInjected)
	}
	if res.StaleEpochs == 0 {
		t.Fatal("stale epoch-1 frame was not dropped by the recruit")
	}
	if res.Outcome2 != replication.OutcomePrimaryCompleted {
		t.Fatalf("recruit outcome %v after a dropped straggler, want clean completion", res.Outcome2)
	}
	mustAgree(t, ref, res.Console, "stale-injection output")
}

// TestViewClusterDoubleTakeoverGuard extends the double-takeover semantics
// of TestDoubleTakeover onto the view path: after n2's legitimate promotion,
// a second acquisition of the same view — by the same node or by the deposed
// primary — must fail explicitly rather than hand out a second license to
// commit output.
func TestViewClusterDoubleTakeoverGuard(t *testing.T) {
	prog, _, cb := viewProgram(t)
	cb.Kill1AtSend = 4
	res, err := RunViewCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.FinalView.Num != 2 {
		t.Fatalf("promoted=%t view=%d, want a completed view-2 promotion", res.Promoted, res.FinalView.Num)
	}
	if err := res.dir.AcquirePromotion(nodeB, 0, 2); !errors.Is(err, viewsvc.ErrAlreadyPromoted) {
		t.Fatalf("second takeover of view 2: err = %v, want ErrAlreadyPromoted", err)
	}
	if err := res.dir.AcquirePromotion(nodeA, 0, 2); !errors.Is(err, viewsvc.ErrDead) {
		t.Fatalf("deposed primary taking over: err = %v, want ErrDead", err)
	}
	if err := res.dir.AcquirePromotion(nodeC, 0, 2); !errors.Is(err, viewsvc.ErrNotPrimary) {
		t.Fatalf("recruit taking over the primary's view: err = %v, want ErrNotPrimary", err)
	}
}

// TestCorruptAckDesync is the regression test for the ack-loop desync fix:
// a fault plan corrupts the first acknowledgement the primary reads (flipped
// byte + garbage tail). The old `seq >= wantSeq` loop could let mangled acks
// satisfy an output commit; now the primary must abort with
// ErrProtocolDesync, and the backup's takeover still yields the reference
// output exactly once.
func TestCorruptAckDesync(t *testing.T) {
	prog, ref, cb := takeoverProgram(t)
	cb.FaultKind = transport.FaultCorruptRecv
	cb.FaultAt = 1
	res, err := RunCluster(cb, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.PrimaryErr, replication.ErrProtocolDesync) {
		t.Fatalf("primary error = %v, want ErrProtocolDesync", res.PrimaryErr)
	}
	if res.Recovery == nil {
		t.Fatal("backup did not take over after the desync")
	}
	mustAgree(t, ref, res.Console, "post-desync takeover output")
}
