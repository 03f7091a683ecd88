package replication

import (
	"errors"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/sehandler"
	"repro/internal/simtest/clock"
	"repro/internal/vm"
	"repro/internal/wire"
)

// schedVM builds a tiny two-thread VM whose threads exist but have not run,
// for driving PickNext directly.
func schedVM(t *testing.T) *vm.VM {
	t.Helper()
	prog, err := bytecode.AssembleString(`
method worker 0 void
loop:
  yield
  jmp loop
end
method main 0 void
  spawn worker 0
  pop
loop:
  yield
  jmp loop
end`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{Program: prog, Env: env.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func schedReplayFor(t *testing.T, switches []*wire.Switch) *schedReplay {
	t.Helper()
	var recs []wire.Record
	for _, s := range switches {
		recs = append(recs, s)
	}
	a, err := analyze(walkOf(recs))
	if err != nil {
		t.Fatal(err)
	}
	return newSchedReplay(a, sehandler.DefaultSet(), vm.NewSeededPolicy(1, 64, 256))
}

func TestSchedReplayChainBreakIsDivergence(t *testing.T) {
	// The chain must start with main ("0"); a record descheduling an
	// unexpected thread is divergence.
	c := schedReplayFor(t, []*wire.Switch{
		{TID: "0.1", BrCnt: 10, MethodIdx: 0, PCOff: 0, Reason: uint8(vm.StateRunnable), NextTID: "0"},
	})
	v := schedVM(t)
	// Spawn main thread state by running zero slices: drive PickNext with a
	// fabricated runnable list.
	main := &vm.Thread{VTID: "0"}
	_, _, err := c.PickNext(v, []*vm.Thread{main}, nil)
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("err = %v, want divergence", err)
	}
}

func TestSchedReplayUnknownThreadIsDivergence(t *testing.T) {
	c := schedReplayFor(t, []*wire.Switch{
		{TID: "0", BrCnt: 10, Reason: uint8(vm.StateRunnable), NextTID: "0.9"},
	})
	v := schedVM(t)
	// The VM has no threads yet, so "0" is unknown to it.
	main := &vm.Thread{VTID: "0"}
	_, _, err := c.PickNext(v, []*vm.Thread{main}, nil)
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("err = %v, want divergence (unknown thread)", err)
	}
}

func TestSchedReplayAnalysisKeepsSwitches(t *testing.T) {
	// Overshoot/position divergence is covered end-to-end by the failover
	// and checksum tests; here pin that analysis preserves switch records
	// in order for the coordinator.
	a, err := analyze(walkOf([]wire.Record{
		&wire.Switch{TID: "0", BrCnt: 5, Reason: uint8(vm.StateRunnable), NextTID: "0.1"},
		&wire.Switch{TID: "0.1", BrCnt: 9, Reason: uint8(vm.StateWaiting), NextTID: "0"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	c := newSchedReplay(a, sehandler.DefaultSet(), nil)
	if len(c.a.switches) != 2 || c.a.switches[0].BrCnt != 5 || c.a.switches[1].NextTID != "0" {
		t.Fatalf("switch records = %+v", c.a.switches)
	}
}

func TestSchedReplayWaitsWhileOpen(t *testing.T) {
	// A warm (open) log with no records yet: PickNext must return nil
	// (idle) rather than dispatching or failing.
	a := newAnalysis()
	c := newSchedReplay(a, sehandler.DefaultSet(), nil)
	v := schedVM(t)
	main := &vm.Thread{VTID: "0"}
	picked, _, err := c.PickNext(v, []*vm.Thread{main}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if picked != nil {
		t.Fatalf("picked %v while the chain is empty and open", picked.VTID)
	}
	// Closing the (empty) log flips to live scheduling.
	a.close()
	picked, _, err = c.PickNext(v, []*vm.Thread{main}, nil)
	if err != nil || picked != main {
		t.Fatalf("post-close pick = %v (%v)", picked, err)
	}
}

func TestAnalyzeCleanHalt(t *testing.T) {
	a, err := analyze(walkOf([]wire.Record{&wire.Halt{}}))
	if err != nil {
		t.Fatal(err)
	}
	if !a.cleanHalt {
		t.Fatal("halt marker not recorded")
	}
}

// TestWarmPull: a warm replay's pull indexes each stored record once, raw or
// decoded, however the log grew between pulls; only the pull after the serve
// loop has ended closes the analysis, and it runs the restore exactly once.
func TestWarmPull(t *testing.T) {
	s := NewLogStore()
	s.wake = clock.Real.NewWaitSlot()
	restores := 0
	w := &warmCoordinator{store: s, a: newAnalysis(), restore: func() error { restores++; return nil }}
	pull := func(want bool) {
		t.Helper()
		if changed, err := w.pull(); err != nil || changed != want {
			t.Fatalf("pull = %v, %v; want %v", changed, err, want)
		}
	}
	var raw wire.Buffer
	for _, r := range []wire.Record{&wire.IDMap{TID: "0", TASN: 0, LID: 1}, &wire.LockAcq{TID: "0", LASN: 0, LID: 1}} {
		if err := raw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.AppendRaw(raw.Bytes(), 2)
	pull(true)
	intent := &wire.OutputIntent{TID: "0", NatSeq: 2, Sig: "io.println"}
	s.Append(&wire.NativeResult{TID: "0", NatSeq: 1, Sig: "sys.clock"}, intent)
	pull(true) // a second walk of the IDMap would fail as a duplicate
	pull(false)
	if a := w.a; a.idmapPending != 1 || a.lockPending != 1 || a.nativePending != 2 || !a.open || restores != 0 {
		t.Fatalf("open log indexed %d id maps, %d acquisitions, %d native events (open %v, %d restores); want 1, 1, 2, open, none",
			a.idmapPending, a.lockPending, a.nativePending, a.open, restores)
	}
	s.seal()
	pull(true)
	pull(false)
	if w.a.open || w.a.uncertain != intent || restores != 1 {
		t.Fatalf("after the serve loop: open %v, uncertain %v, %d restores; want closed, the trailing intent, one", w.a.open, w.a.uncertain, restores)
	}
}
