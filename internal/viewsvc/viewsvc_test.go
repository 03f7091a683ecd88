package viewsvc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/simtest/clock"
)

func newSvc(t *testing.T, clk clock.Clock, timeout time.Duration, nodes ...string) *Service {
	t.Helper()
	s := New(Config{Clock: clk, FailTimeout: timeout})
	for _, n := range nodes {
		s.Join(n)
	}
	return s
}

func wantView(t *testing.T, got View, num uint64, pri, bak string) {
	t.Helper()
	if got.Num != num || got.Primary != pri || got.Backup != bak {
		t.Fatalf("view = %+v, want {Num:%d Primary:%q Backup:%q}", got, num, pri, bak)
	}
}

func TestFormAndReportFailurePromotes(t *testing.T) {
	s := newSvc(t, clock.NewVirtual(), 0, "n1", "n2", "n3")
	v, err := s.Form()
	if err != nil {
		t.Fatal(err)
	}
	wantView(t, v, 1, "n1", "n2")
	if _, err := s.Form(); err == nil {
		t.Fatal("second Form should fail")
	}

	// Primary dies: backup promoted, idle node recruited.
	v, err = s.ReportFailure("n2", "n1")
	if err != nil {
		t.Fatal(err)
	}
	wantView(t, v, 2, "n2", "n3")

	// New primary dies: last node leads, degraded (no backup left).
	v, err = s.ReportFailure("n3", "n2")
	if err != nil {
		t.Fatal(err)
	}
	wantView(t, v, 3, "n3", "")

	// Reporting an already-dead node does not advance the view again.
	v, err = s.ReportFailure("n3", "n1")
	if err != nil {
		t.Fatal(err)
	}
	wantView(t, v, 3, "n3", "")
}

func TestBackupFailureRecruitsAndAdvancesEpoch(t *testing.T) {
	s := newSvc(t, clock.NewVirtual(), 0, "n1", "n2", "n3")
	if _, err := s.Form(); err != nil {
		t.Fatal(err)
	}
	// Backup dies: primary keeps its seat but the epoch still advances (the
	// new pair is a new configuration) and the idle node fills in.
	v, err := s.ReportFailure("n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	wantView(t, v, 2, "n1", "n3")
}

func TestDeadReporterAndUnknownNodes(t *testing.T) {
	s := newSvc(t, clock.NewVirtual(), 0, "n1", "n2")
	if _, err := s.Form(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFailure("n2", "n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFailure("n1", "n2"); !errors.Is(err, ErrDead) {
		t.Fatalf("dead reporter: err = %v, want ErrDead", err)
	}
	if _, err := s.ReportFailure("ghost", "n2"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown reporter: err = %v, want ErrUnknownNode", err)
	}
	if _, err := s.ReportFailure("n2", "ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown dead: err = %v, want ErrUnknownNode", err)
	}
}

func TestAcquirePromotionGuard(t *testing.T) {
	s := newSvc(t, clock.NewVirtual(), 0, "n1", "n2", "n3")
	if _, err := s.Form(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFailure("n2", "n1"); err != nil {
		t.Fatal(err)
	}

	// Wrong seat, wrong view, then the real one, then the double takeover.
	if err := s.AcquirePromotion("n3", 2); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("backup acquiring: err = %v, want ErrNotPrimary", err)
	}
	if err := s.AcquirePromotion("n2", 1); !errors.Is(err, ErrStaleView) {
		t.Fatalf("old view: err = %v, want ErrStaleView", err)
	}
	if err := s.AcquirePromotion("n2", 2); err != nil {
		t.Fatalf("legitimate acquisition failed: %v", err)
	}
	if err := s.AcquirePromotion("n2", 2); !errors.Is(err, ErrAlreadyPromoted) {
		t.Fatalf("double takeover: err = %v, want ErrAlreadyPromoted", err)
	}
	if err := s.AcquirePromotion("ghost", 2); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: err = %v, want ErrUnknownNode", err)
	}
}

func TestTickDeclaresSilentNodesDead(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Watchdog(30 * time.Second)()
	s := newSvc(t, clk, 100*time.Millisecond, "n1", "n2", "n3")
	if _, err := s.Form(); err != nil {
		t.Fatal(err)
	}

	// n2 and n3 keep pinging; n1 goes silent. Under the virtual clock the
	// detection instant is exact: at +100ms n1 is still within timeout, just
	// past it the Tick declares it dead and promotes n2. The test goroutine
	// stays attached during setup so the clock cannot free-run between actor
	// launches.
	clk.Attach()
	p2 := NewPinger(s, "n2", 20*time.Millisecond)
	p3 := NewPinger(s, "n3", 20*time.Millisecond)
	defer p2.Stop()
	defer p3.Stop()

	var wg sync.WaitGroup
	wg.Add(1)
	var got View
	var detectedAt time.Duration
	clk.Go(func() {
		defer wg.Done()
		got = s.WaitView(2)
		// Read the instant while this actor still runs (the clock cannot
		// advance under it); by the time the detached test goroutine resumes,
		// the surviving pingers have already pushed virtual time further.
		detectedAt = clk.Elapsed()
	})

	w := NewWatcher(s, 30*time.Millisecond)
	defer w.Stop()
	clk.Detach()
	wg.Wait()
	wantView(t, got, 2, "n2", "n3")
	if detectedAt <= 100*time.Millisecond || detectedAt > 200*time.Millisecond {
		t.Fatalf("detection at %v, want within (100ms, 200ms]", detectedAt)
	}
	// The dead node's late ping must not resurrect it.
	s.Ping("n1")
	if v := s.Tick(); v.Num != 2 {
		t.Fatalf("late ping resurrected n1: view %+v", v)
	}
}

func TestWaitViewAlreadySatisfiedAndMultipleWaiters(t *testing.T) {
	clk := clock.NewVirtual()
	defer clk.Watchdog(30 * time.Second)()
	s := newSvc(t, clk, 0, "n1", "n2", "n3")
	if _, err := s.Form(); err != nil {
		t.Fatal(err)
	}
	wantView(t, s.WaitView(1), 1, "n1", "n2") // already satisfied: no block

	var wg sync.WaitGroup
	views := make([]View, 2)
	// Hold the clock while actors launch: a waiter that parks before the
	// reporter exists would be every actor there is, parked, with nothing
	// scheduled — which the clock rightly calls a deadlock.
	clk.Attach()
	for i := range views {
		wg.Add(1)
		i := i
		clk.Go(func() {
			defer wg.Done()
			views[i] = s.WaitView(2)
		})
	}
	clk.Go(func() {
		clk.Sleep(10 * time.Millisecond)
		_, _ = s.ReportFailure("n2", "n1")
	})
	clk.Detach()
	wg.Wait()
	for i, v := range views {
		if v.Num != 2 {
			t.Fatalf("waiter %d got view %+v", i, v)
		}
	}
}

func TestFormDegradedSingleNode(t *testing.T) {
	s := newSvc(t, clock.NewVirtual(), 0, "only")
	v, err := s.Form()
	if err != nil {
		t.Fatal(err)
	}
	wantView(t, v, 1, "only", "")
	if _, err := New(Config{Clock: clock.NewVirtual()}).Form(); err == nil {
		t.Fatal("forming with no members should fail")
	}
}
