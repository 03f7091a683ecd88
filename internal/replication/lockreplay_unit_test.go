package replication

import (
	"errors"
	"testing"

	"repro/internal/sehandler"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Unit tests for the §4.2 replay waiting rules, driven with synthetic logs
// (the end-to-end behaviour is covered by the failover tests; these pin the
// individual predicates, including the id-map cases the paper spells out).

// walkOf is analyze's walk over a test's records.
func walkOf(records []wire.Record) func(func(wire.Record) error) error {
	return func(fn func(wire.Record) error) error {
		for _, r := range records {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func lockReplayFor(t *testing.T, records []wire.Record) *lockReplay {
	t.Helper()
	a, err := analyze(walkOf(records))
	if err != nil {
		t.Fatal(err)
	}
	return newLockReplay(a, sehandler.DefaultSet(), nil)
}

func TestCanAcquireFollowsRecordedTurn(t *testing.T) {
	c := lockReplayFor(t, []wire.Record{
		&wire.IDMap{LID: 1, TID: "0", TASN: 0},
		&wire.LockAcq{TID: "0", TASN: 0, LID: 1, LASN: 0},
		&wire.LockAcq{TID: "0.1", TASN: 0, LID: 1, LASN: 1},
		&wire.LockAcq{TID: "0", TASN: 1, LID: 1, LASN: 2},
	})
	main := &vm.Thread{VTID: "0"}
	child := &vm.Thread{VTID: "0.1"}
	m := &vm.Monitor{LID: -1}

	// Main holds the id map for its first acquisition: may proceed.
	ok, err := c.canAcquire(main, m)
	if err != nil || !ok {
		t.Fatalf("main first acquire: %v %v", ok, err)
	}
	// The child must wait: the lock has no id yet and the id map belongs to
	// main ("waits until t' assigns the l_id at the backup").
	ok, err = c.canAcquire(child, m)
	if err != nil || ok {
		t.Fatalf("child should wait for id assignment: %v %v", ok, err)
	}

	// Main acquires: id assigned, map and record consumed.
	lid, granted, err := c.AssignLID(nil, main, m)
	if err != nil || !granted || lid != 1 {
		t.Fatalf("assign = %d %v %v", lid, granted, err)
	}
	m.LID = lid
	if err := c.OnAcquired(nil, main, m); err != nil {
		t.Fatal(err)
	}
	m.LASN, main.TASN = 1, 1

	// Now it is the child's recorded turn (l_asn 1), not main's (l_asn 2).
	ok, err = c.canAcquire(child, m)
	if err != nil || !ok {
		t.Fatalf("child's turn: %v %v", ok, err)
	}
	ok, err = c.canAcquire(main, m)
	if err != nil || ok {
		t.Fatalf("main must wait for the child: %v %v", ok, err)
	}
	if err := c.OnAcquired(nil, child, m); err != nil {
		t.Fatal(err)
	}
	m.LASN, child.TASN = 2, 1

	ok, err = c.canAcquire(main, m)
	if err != nil || !ok {
		t.Fatalf("main's second turn: %v %v", ok, err)
	}
	if err := c.OnAcquired(nil, main, m); err != nil {
		t.Fatal(err)
	}
	if !c.recoveryDone() {
		t.Fatal("all records consumed but recovery not done")
	}
}

func TestCanAcquireWaitsForGlobalDrainWithoutRecord(t *testing.T) {
	c := lockReplayFor(t, []wire.Record{
		&wire.IDMap{LID: 1, TID: "0", TASN: 0},
		&wire.LockAcq{TID: "0", TASN: 0, LID: 1, LASN: 0},
	})
	// Thread 0.1 has no records: the primary never saw it acquire. It must
	// wait until the log holds no more lock records (end of recovery).
	child := &vm.Thread{VTID: "0.1"}
	m2 := &vm.Monitor{LID: -1}
	ok, err := c.canAcquire(child, m2)
	if err != nil || ok {
		t.Fatalf("recordless thread should wait: %v %v", ok, err)
	}
	// Drain main's acquisition.
	main := &vm.Thread{VTID: "0"}
	m := &vm.Monitor{LID: -1}
	if _, _, err := c.AssignLID(nil, main, m); err != nil {
		t.Fatal(err)
	}
	m.LID = 1
	if err := c.OnAcquired(nil, main, m); err != nil {
		t.Fatal(err)
	}
	// Log drained: the recordless thread runs free.
	ok, err = c.canAcquire(child, m2)
	if err != nil || !ok {
		t.Fatalf("post-drain acquire: %v %v", ok, err)
	}
}

func TestAssignLIDFreshAfterMapsDrained(t *testing.T) {
	// The lock was never assigned an id at the primary (crash before its
	// first acquisition): once no id maps remain, a fresh id is minted above
	// the logged range ("t can safely assign a new l_id").
	c := lockReplayFor(t, []wire.Record{
		&wire.IDMap{LID: 7, TID: "0", TASN: 0},
		&wire.LockAcq{TID: "0", TASN: 0, LID: 7, LASN: 0},
	})
	main := &vm.Thread{VTID: "0"}
	m := &vm.Monitor{LID: -1}
	if _, _, err := c.AssignLID(nil, main, m); err != nil {
		t.Fatal(err)
	}
	m.LID = 7
	if err := c.OnAcquired(nil, main, m); err != nil {
		t.Fatal(err)
	}
	main.TASN = 1
	fresh := &vm.Monitor{LID: -1}
	lid, granted, err := c.AssignLID(nil, main, fresh)
	if err != nil || !granted {
		t.Fatalf("fresh assign: %v %v", granted, err)
	}
	if lid <= 7 {
		t.Fatalf("fresh lid %d must exceed the logged range", lid)
	}
}

func TestDivergenceDetection(t *testing.T) {
	t.Run("wrong lid", func(t *testing.T) {
		c := lockReplayFor(t, []wire.Record{
			&wire.LockAcq{TID: "0", TASN: 0, LID: 3, LASN: 0},
		})
		main := &vm.Thread{VTID: "0"}
		m := &vm.Monitor{LID: 99}
		if _, err := c.canAcquire(main, m); !errors.Is(err, ErrDivergence) {
			t.Fatalf("want divergence, got %v", err)
		}
	})
	t.Run("lasn overshoot", func(t *testing.T) {
		c := lockReplayFor(t, []wire.Record{
			&wire.LockAcq{TID: "0", TASN: 0, LID: 3, LASN: 0},
		})
		main := &vm.Thread{VTID: "0"}
		m := &vm.Monitor{LID: 3, LASN: 5}
		if _, err := c.canAcquire(main, m); !errors.Is(err, ErrDivergence) {
			t.Fatalf("want divergence, got %v", err)
		}
	})
	t.Run("acquired mismatch", func(t *testing.T) {
		c := lockReplayFor(t, []wire.Record{
			&wire.LockAcq{TID: "0", TASN: 0, LID: 3, LASN: 1},
		})
		main := &vm.Thread{VTID: "0"}
		m := &vm.Monitor{LID: 3, LASN: 0}
		if err := c.OnAcquired(nil, main, m); !errors.Is(err, ErrDivergence) {
			t.Fatalf("want divergence, got %v", err)
		}
	})
}

func TestOrphanedTrailingIDMapDoesNotDeadlock(t *testing.T) {
	// Regression, found by the differential fuzzer (seed 43, failover): a
	// channel fault cut the log immediately after an id-map record, before
	// its matching acquisition record shipped. The map proves its thread's
	// (t, t_asn) acquisition was the lock's first ever, so the thread must
	// be allowed to proceed and consume the map; previously it gated on the
	// global drain, the orphaned map held idmapPending above zero, and every
	// thread deadlocked.
	c := lockReplayFor(t, []wire.Record{
		&wire.IDMap{LID: 1, TID: "0", TASN: 0},
		&wire.LockAcq{TID: "0", TASN: 0, LID: 1, LASN: 0},
		&wire.LockAcq{TID: "0.3", TASN: 0, LID: 1, LASN: 1},
		&wire.IDMap{LID: 2, TID: "0.3", TASN: 1}, // acquisition record cut off
	})
	main := &vm.Thread{VTID: "0"}
	worker := &vm.Thread{VTID: "0.3"}
	other := &vm.Thread{VTID: "0.1"} // no records at all

	// Drain the shared lock: main's acquisition, then the worker's.
	lk := &vm.Monitor{LID: -1}
	if _, _, err := c.AssignLID(nil, main, lk); err != nil {
		t.Fatal(err)
	}
	lk.LID = 1
	if err := c.OnAcquired(nil, main, lk); err != nil {
		t.Fatal(err)
	}
	lk.LASN = 1
	if ok, err := c.canAcquire(worker, lk); err != nil || !ok {
		t.Fatalf("worker's recorded turn: %v %v", ok, err)
	}
	if err := c.OnAcquired(nil, worker, lk); err != nil {
		t.Fatal(err)
	}
	worker.TASN = 1

	// Acquisition records are drained but the orphaned map remains: a
	// recordless thread must still wait...
	fresh := &vm.Monitor{LID: -1}
	if ok, err := c.canAcquire(other, fresh); err != nil || ok {
		t.Fatalf("recordless thread should wait on the pending map: %v %v", ok, err)
	}
	// ...while the map's addressee proceeds with the first-ever acquisition.
	own := &vm.Monitor{LID: -1}
	if ok, err := c.canAcquire(worker, own); err != nil || !ok {
		t.Fatalf("assigner with orphaned map must proceed: %v %v", ok, err)
	}
	lid, granted, err := c.AssignLID(nil, worker, own)
	if err != nil || !granted || lid != 2 {
		t.Fatalf("assign = %d %v %v", lid, granted, err)
	}
	own.LID = lid
	if err := c.OnAcquired(nil, worker, own); err != nil {
		t.Fatal(err)
	}

	// Map consumed: recovery drains and the recordless thread runs free.
	if !c.recoveryDone() {
		t.Fatal("orphaned map still pending after assigner consumed it")
	}
	if ok, err := c.canAcquire(other, fresh); err != nil || !ok {
		t.Fatalf("post-drain acquire: %v %v", ok, err)
	}
}

func TestAnalyzeRejectsDuplicateIDMaps(t *testing.T) {
	_, err := analyze(walkOf([]wire.Record{
		&wire.IDMap{LID: 1, TID: "0", TASN: 0},
		&wire.IDMap{LID: 2, TID: "0", TASN: 0},
	}))
	if err == nil {
		t.Fatal("duplicate id map accepted")
	}
}

func TestAnalyzeUncertainDetection(t *testing.T) {
	intent := &wire.OutputIntent{TID: "0", NatSeq: 1, Sig: "io.print"}
	a, err := analyze(walkOf([]wire.Record{
		&wire.LockAcq{TID: "0", TASN: 0, LID: 1, LASN: 0},
		intent,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a.uncertain != intent {
		t.Fatal("final intent should be uncertain")
	}
	// A trailing result record makes the output certain.
	a, err = analyze(walkOf([]wire.Record{
		intent,
		&wire.NativeResult{TID: "0", NatSeq: 1, Sig: "io.print"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a.uncertain != nil {
		t.Fatal("output followed by records is certain")
	}
}

func TestIntervalReplayTurnPredicate(t *testing.T) {
	a, err := analyze(walkOf([]wire.Record{
		&wire.LockInterval{TID: "0", StartTASN: 0, Count: 2},
		&wire.LockInterval{TID: "0.1", StartTASN: 0, Count: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	c := newIntervalReplay(a, sehandler.DefaultSet(), nil)
	main := &vm.Thread{VTID: "0"}
	child := &vm.Thread{VTID: "0.1"}
	if ok, _ := c.turnOf(main); !ok {
		t.Fatal("main owns the first interval")
	}
	if ok, _ := c.turnOf(child); ok {
		t.Fatal("child must wait for its interval")
	}
	if err := c.OnAcquired(nil, main, nil); err != nil {
		t.Fatal(err)
	}
	main.TASN = 1
	if ok, _ := c.turnOf(main); !ok {
		t.Fatal("main still inside its interval")
	}
	if err := c.OnAcquired(nil, main, nil); err != nil {
		t.Fatal(err)
	}
	main.TASN = 2
	// Main's interval exhausted; the child's turn.
	if ok, _ := c.turnOf(main); ok {
		t.Fatal("main's interval is over")
	}
	if ok, _ := c.turnOf(child); !ok {
		t.Fatal("child's interval")
	}
	if err := c.OnAcquired(nil, child, nil); err != nil {
		t.Fatal(err)
	}
	child.TASN = 1
	if !c.drained() {
		t.Fatal("intervals should be drained")
	}
	if ok, _ := c.turnOf(main); !ok {
		t.Fatal("post-drain everything is free")
	}
}
