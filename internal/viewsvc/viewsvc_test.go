package viewsvc

import (
	"errors"
	"testing"
)

// The cases in this file and edge_test.go are a single replica set's: a
// one-shard directory, whose epochs run 1, 2, 3, … and whose one view is
// Shard(0). shards_test.go has the many-shard cases.

// newSet builds an unformed directory that nodes have joined.
func newSet(t *testing.T, nodes ...string) *ShardDirectory {
	t.Helper()
	d := NewShardDirectory()
	for _, n := range nodes {
		d.Join(n)
	}
	return d
}

// formSet forms the one shard and returns its view.
func formSet(t *testing.T, d *ShardDirectory) View {
	t.Helper()
	views, err := d.Form(1)
	if err != nil {
		t.Fatal(err)
	}
	return views[0]
}

// report has reporter declare dead failed and returns the resulting view.
func report(t *testing.T, d *ShardDirectory, reporter, dead string) View {
	t.Helper()
	if _, err := d.ReportFailure(reporter, dead); err != nil {
		t.Fatal(err)
	}
	return d.Shard(0)
}

func wantView(t *testing.T, got View, num uint64, pri, bak string) {
	t.Helper()
	if got.Num != num || got.Primary != pri || got.Backup != bak {
		t.Fatalf("view = %+v, want {Num:%d Primary:%q Backup:%q}", got, num, pri, bak)
	}
}

func TestFormAndReportFailurePromotes(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3")
	wantView(t, formSet(t, d), 1, "n1", "n2")
	if _, err := d.Form(1); err == nil {
		t.Fatal("second Form should fail")
	}

	// Primary dies: backup promoted, idle node recruited.
	wantView(t, report(t, d, "n2", "n1"), 2, "n2", "n3")

	// New primary dies: last node leads, degraded (no backup left).
	wantView(t, report(t, d, "n3", "n2"), 3, "n3", "")

	// Reporting an already-dead node does not advance the view again.
	wantView(t, report(t, d, "n3", "n1"), 3, "n3", "")

	// The last node dies: the terminal, empty view. (Nobody live is left to
	// report it; a fresh node stands in.)
	d.Join("n4")
	wantView(t, report(t, d, "n4", "n3"), 4, "", "")
}

func TestBackupFailureRecruitsAndAdvancesEpoch(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3")
	formSet(t, d)
	// Backup dies: primary keeps its seat but the epoch still advances (the
	// new pair is a new configuration) and the idle node fills in.
	wantView(t, report(t, d, "n1", "n2"), 2, "n1", "n3")
}

func TestDeadReporterAndUnknownNodes(t *testing.T) {
	d := newSet(t, "n1", "n2")
	formSet(t, d)
	report(t, d, "n2", "n1")
	if _, err := d.ReportFailure("n1", "n2"); !errors.Is(err, ErrDead) {
		t.Fatalf("dead reporter: err = %v, want ErrDead", err)
	}
	if _, err := d.ReportFailure("ghost", "n2"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown reporter: err = %v, want ErrUnknownNode", err)
	}
	if _, err := d.ReportFailure("n2", "ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown dead: err = %v, want ErrUnknownNode", err)
	}
	wantView(t, d.Shard(0), 2, "n2", "")
}

func TestAcquirePromotionGuard(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3")
	formSet(t, d)
	report(t, d, "n2", "n1")

	// Wrong seat, wrong view, then the real one, then the double takeover.
	if err := d.AcquirePromotion("n3", 0, 2); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("backup acquiring: err = %v, want ErrNotPrimary", err)
	}
	if err := d.AcquirePromotion("n2", 0, 1); !errors.Is(err, ErrStaleView) {
		t.Fatalf("old view: err = %v, want ErrStaleView", err)
	}
	if err := d.AcquirePromotion("n2", 0, 2); err != nil {
		t.Fatalf("legitimate acquisition failed: %v", err)
	}
	if err := d.AcquirePromotion("n2", 0, 2); !errors.Is(err, ErrAlreadyPromoted) {
		t.Fatalf("double takeover: err = %v, want ErrAlreadyPromoted", err)
	}
	if err := d.AcquirePromotion("ghost", 0, 2); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	if err := d.AcquirePromotion("n1", 0, 2); !errors.Is(err, ErrDead) {
		t.Fatalf("dead node: err = %v, want ErrDead", err)
	}
}

func TestFormDegradedSingleNode(t *testing.T) {
	d := newSet(t, "only")
	wantView(t, formSet(t, d), 1, "only", "")
	if _, err := newSet(t).Form(1); err == nil {
		t.Fatal("forming with no members should fail")
	}
	// A member declared dead before formation is no member to form over.
	d = newSet(t, "n1", "n2")
	if _, err := d.ReportFailure("n2", "n1"); err != nil {
		t.Fatal(err)
	}
	wantView(t, formSet(t, d), 1, "n2", "")
}
