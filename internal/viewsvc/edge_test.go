package viewsvc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simtest/clock"
)

// Edge cases around the membership/promotion protocol, all on the virtual
// clock so every interleaving is deterministic.

// TestPingFromDeadNodeIgnored: a node declared dead cannot refresh itself
// with a heartbeat — not via Ping, not via a Tick after pinging, and its
// seat stays reassigned. Only an explicit re-Join resurrects.
func TestPingFromDeadNodeIgnored(t *testing.T) {
	clk := clock.NewVirtual()
	d := newSet(t, clk, 50*time.Millisecond, "n1", "n2", "n3")
	formSet(t, d)
	wantView(t, report(t, d, "n2", "n1"), 2, "n2", "n3")

	// The deposed primary keeps pinging from the grave: neither the pings
	// nor a detector pass after them may resurrect it or move the view.
	for i := 0; i < 5; i++ {
		d.Ping("n1")
	}
	if chs := d.Tick(); len(chs) != 0 {
		t.Fatalf("a dead node's pings moved the view: %+v", chs)
	}
	wantView(t, d.Shard(0), 2, "n2", "n3")

	// A re-Join, by contrast, does resurrect: n1 returns as recruitable and
	// takes the backup seat when n3 dies.
	d.Join("n1")
	wantView(t, report(t, d, "n2", "n3"), 3, "n2", "n1")
}

// TestReportFailureOnStaleView: a straggling report about a node that was
// already reseated away must not advance the view again — the failure was
// consumed by the first report, and re-reporting is idempotent.
func TestReportFailureOnStaleView(t *testing.T) {
	d := newSet(t, clock.NewVirtual(), 0, "n1", "n2", "n3")
	formSet(t, d)
	wantView(t, report(t, d, "n2", "n1"), 2, "n2", "n3")

	// n3's late, independent report of the same death: view unchanged.
	if chs, err := d.ReportFailure("n3", "n1"); err != nil || len(chs) != 0 {
		t.Fatalf("second report of one death: %+v, %v; want no change", chs, err)
	}
	wantView(t, d.Shard(0), 2, "n2", "n3")

	// The dead node itself reporting the new primary dead: rejected — a
	// deposed node cannot vote its successor out.
	if _, err := d.ReportFailure("n1", "n2"); !errors.Is(err, ErrDead) {
		t.Fatalf("dead reporter: err = %v, want ErrDead", err)
	}
	wantView(t, d.Shard(0), 2, "n2", "n3")
}

// TestConcurrentAcquirePromotionThreeClaimants: three replicas race to claim
// the same view's promotion concurrently on the virtual clock. Exactly one
// license is issued; the losers see ErrAlreadyPromoted (same node again) or
// ErrNotPrimary (wrong seat), and the outcome is deterministic across runs.
func TestConcurrentAcquirePromotionThreeClaimants(t *testing.T) {
	run := func() (winner string, errs map[string]error) {
		clk := clock.NewVirtual()
		d := newSet(t, clk, 0, "n1", "n2", "n3", "n4")
		formSet(t, d)
		report(t, d, "n2", "n1")
		// View 2: {n2, n3}. Claimants: n2 (rightful), n3 (backup), n4 (idle),
		// plus a second n2 claim racing the first from another goroutine.
		var mu sync.Mutex
		errs = make(map[string]error)
		var wg sync.WaitGroup
		clk.Attach()
		for i, claim := range []struct {
			node  string
			delay time.Duration
		}{
			{"n2", 5 * time.Millisecond},
			{"n3", 5 * time.Millisecond},
			{"n4", 5 * time.Millisecond},
			{"n2", 6 * time.Millisecond},
		} {
			claim := claim
			key := fmt.Sprintf("%s#%d", claim.node, i)
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				clk.Sleep(claim.delay)
				err := d.AcquirePromotion(claim.node, 0, 2)
				mu.Lock()
				errs[key] = err
				if err == nil {
					winner = key
				}
				mu.Unlock()
			})
		}
		clk.Detach()
		wg.Wait()
		return winner, errs
	}

	winner, errs := run()
	if winner != "n2#0" {
		t.Fatalf("winner = %q, want the first n2 claim (virtual clock wakes same-deadline parks in schedule order)", winner)
	}
	nilCount := 0
	for key, err := range errs {
		switch {
		case err == nil:
			nilCount++
		case key == "n2#3":
			if !errors.Is(err, ErrAlreadyPromoted) {
				t.Fatalf("second n2 claim: %v, want ErrAlreadyPromoted", err)
			}
		default:
			if !errors.Is(err, ErrNotPrimary) {
				t.Fatalf("claim %s: %v, want ErrNotPrimary", key, err)
			}
		}
	}
	if nilCount != 1 {
		t.Fatalf("%d licenses issued, want exactly 1 (%v)", nilCount, errs)
	}

	// Deterministic: the same schedule yields the same winner and the same
	// error taxonomy on every run.
	winner2, errs2 := run()
	if winner2 != winner || len(errs2) != len(errs) {
		t.Fatalf("nondeterministic race: %q vs %q", winner, winner2)
	}
	for k, e := range errs {
		e2 := errs2[k]
		if (e == nil) != (e2 == nil) || (e != nil && e2 != nil && !errors.Is(e2, errorsUnwrapTarget(e))) {
			t.Fatalf("claim %s differed across runs: %v vs %v", k, e, e2)
		}
	}
}

// errorsUnwrapTarget maps a wrapped guard error to its sentinel for cross-run
// comparison.
func errorsUnwrapTarget(err error) error {
	for _, sentinel := range []error{ErrAlreadyPromoted, ErrNotPrimary, ErrStaleView, ErrDead, ErrUnknownNode} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}
