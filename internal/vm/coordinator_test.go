package vm

import (
	"testing"

	"repro/internal/env"
	"repro/internal/native"
)

// gateCoordinator wraps the default coordinator and gates the first N
// intercepted native calls / first M lock acquisitions, releasing them via
// Poll — exercising the replay-style gating machinery without replication.
// A lock acquisition is gated in BeforeAcquire, or with gateLID in
// AssignLID, as a lock replay gates a thread whose id map is not matched yet.
// With kill, OnAcquired fail-stops the VM, as a primary's record send can.
type gateCoordinator struct {
	*DefaultCoordinator
	nativeHoldoffs int
	lockHoldoffs   int
	nativeGated    int
	lockGated      int
	polls          int
	gateLID, kill  bool
}

func (g *gateCoordinator) NativeReady(_ *VM, _ *Thread, _ *native.Def) bool {
	if g.nativeHoldoffs > 0 {
		g.nativeGated++
		return false
	}
	return true
}

func (g *gateCoordinator) BeforeAcquire(_ *VM, _ *Thread, _ *Monitor) (bool, error) {
	if g.lockHoldoffs > 0 && !g.gateLID {
		g.lockGated++
		return false, nil
	}
	return true, nil
}

func (g *gateCoordinator) AssignLID(v *VM, t *Thread, m *Monitor) (int64, bool, error) {
	if g.lockHoldoffs > 0 && g.gateLID {
		g.lockGated++
		return 0, false, nil
	}
	return g.DefaultCoordinator.AssignLID(v, t, m)
}

func (g *gateCoordinator) OnAcquired(v *VM, _ *Thread, _ *Monitor) error {
	if g.kill {
		v.Kill()
	}
	return nil
}

func (g *gateCoordinator) Poll(v *VM) (bool, error) {
	g.polls++
	progress := false
	if g.nativeHoldoffs > 0 {
		g.nativeHoldoffs--
		if g.nativeHoldoffs == 0 {
			progress = true
		}
	}
	if g.lockHoldoffs > 0 {
		g.lockHoldoffs--
		if g.lockHoldoffs == 0 {
			progress = true
		}
	}
	for _, t := range v.Threads() {
		if t.State() == StateGated {
			if (t.BlockedOn() == nil && g.nativeHoldoffs == 0) ||
				(t.BlockedOn() != nil && g.lockHoldoffs == 0) {
				v.Ungate(t)
				progress = true
			}
		}
	}
	return progress, nil
}

// OnIdle keeps the scheduler retrying while holdoffs remain (Poll counts
// down one per iteration).
func (g *gateCoordinator) OnIdle(*VM) (bool, error) {
	return g.nativeHoldoffs > 0 || g.lockHoldoffs > 0, nil
}

func TestNativeGatingAndRelease(t *testing.T) {
	p := buildProgram(t, printNative+`
method main 0 void
  sconst "hello"
  call print
  ret
end`)
	g := &gateCoordinator{DefaultCoordinator: NewDefaultCoordinator(nil), nativeHoldoffs: 3}
	e := env.New(1)
	v, err := New(Config{Program: p, Env: e, Coordinator: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if g.nativeGated == 0 {
		t.Fatal("native gate never engaged")
	}
	if lines := e.Console().Lines(); len(lines) != 1 || lines[0] != "hello" {
		t.Fatalf("console = %v (call must execute exactly once after gating)", lines)
	}
	// br_cnt must count the gated-then-retried call exactly once: compare
	// with an ungated run.
	v2, _ := New(Config{Program: buildProgram(t, printNative+`
method main 0 void
  sconst "hello"
  call print
  ret
end`), Env: env.New(1)})
	if err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Branches != v2.Stats().Branches {
		t.Fatalf("gated run counted %d branches, ungated %d", v.Stats().Branches, v2.Stats().Branches)
	}
}

// lockProgram takes and releases one lock: new, store, load, menter, then
// load, mexit, ret.
const lockProgram = `
class L d
method main 0 void
  new L
  store 0
  load 0
  menter
  load 0
  mexit
  ret
end`

// TestLockGatingAndRelease gates the program's acquisition before it
// (BeforeAcquire) and on its lock's first id (AssignLID). Either way the
// readmitted thread re-executes its monitorenter, so the critical section
// runs with the lock held and its monitorexit finds the monitor owned.
func TestLockGatingAndRelease(t *testing.T) {
	p := buildProgram(t, lockProgram)
	for _, gateLID := range []bool{false, true} {
		for _, d := range []Dispatch{DispatchThreaded, DispatchSwitch} {
			g := &gateCoordinator{DefaultCoordinator: NewDefaultCoordinator(nil), lockHoldoffs: 2, gateLID: gateLID}
			v, err := New(Config{Program: p, Env: env.New(1), Coordinator: g, Dispatch: d})
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Run(); err != nil {
				t.Fatalf("gateLID=%v %v: run: %v", gateLID, d, err)
			}
			if g.lockGated == 0 {
				t.Fatalf("gateLID=%v %v: lock gate never engaged", gateLID, d)
			}
			if s := v.Stats(); s.LocksAcquired != 2 || s.ObjectsLocked != 2 { // program lock + $finish thread lock
				t.Fatalf("gateLID=%v %v: locks = %d on %d objects, want 2 on 2", gateLID, d, s.LocksAcquired, s.ObjectsLocked)
			}
		}
	}
}

// TestKillDuringAcquireStopsAtTheAcquire: an uncontended monitorenter stays
// in its block, but one during which a kill arrived still leaves it, so the
// VM stops right after the acquire, as at a boundary.
func TestKillDuringAcquireStopsAtTheAcquire(t *testing.T) {
	p := buildProgram(t, lockProgram)
	for _, d := range []Dispatch{DispatchThreaded, DispatchSwitch} {
		v, err := New(Config{Program: p, Env: env.New(1), Dispatch: d,
			Coordinator: &gateCoordinator{DefaultCoordinator: NewDefaultCoordinator(nil), kill: true}})
		if err != nil {
			t.Fatal(err)
		}
		err = v.Run()
		if s := v.Stats(); !v.Killed() || s.Instructions != 4 || s.LocksAcquired != 1 {
			t.Fatalf("%v: run returned %v after %d instructions, %d locks; want killed after 4 (through the menter), 1",
				d, err, s.Instructions, s.LocksAcquired)
		}
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	p := &RoundRobinPolicy{Q: 7}
	threads := []*Thread{{Slot: 0}, {Slot: 1}, {Slot: 2}}
	if got := p.Next(threads, nil); got != threads[0] {
		t.Fatalf("first pick = slot %d", got.Slot)
	}
	if got := p.Next(threads, threads[0]); got != threads[1] {
		t.Fatalf("after 0 = slot %d", got.Slot)
	}
	if got := p.Next(threads, threads[2]); got != threads[0] {
		t.Fatalf("wrap = slot %d", got.Slot)
	}
	// Skips non-runnable entries (the caller only passes runnable ones).
	if got := p.Next([]*Thread{threads[0], threads[2]}, threads[0]); got != threads[2] {
		t.Fatalf("gap skip = slot %d", got.Slot)
	}
	if p.Quantum() != 7 {
		t.Fatalf("quantum = %d", p.Quantum())
	}
	if (&RoundRobinPolicy{}).Quantum() == 0 {
		t.Fatal("default quantum must be positive")
	}
}

func TestSeededPolicyDeterminism(t *testing.T) {
	threads := []*Thread{{Slot: 0}, {Slot: 1}, {Slot: 2}}
	a := NewSeededPolicy(9, 10, 100)
	b := NewSeededPolicy(9, 10, 100)
	for i := 0; i < 50; i++ {
		if a.Next(threads, nil) != b.Next(threads, nil) {
			t.Fatal("same seed diverged on Next")
		}
		qa, qb := a.Quantum(), b.Quantum()
		if qa != qb {
			t.Fatal("same seed diverged on Quantum")
		}
		if qa < 10 || qa > 100 {
			t.Fatalf("quantum %d outside [10,100]", qa)
		}
	}
}
