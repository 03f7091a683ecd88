package viewsvc

import (
	"errors"
	"testing"
)

// table reads the directory's n shard views.
func table(d *ShardDirectory, n int) []View {
	out := make([]View, n)
	for i := range out {
		out[i] = d.Shard(i)
	}
	return out
}

func TestFormShardsRoundRobin(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3")
	views, err := d.Form(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 6 || d.Shard(5) != views[5] || d.Shard(6) != (View{}) {
		t.Fatalf("formed %d shards", len(views))
	}
	wantPri := []string{"n1", "n2", "n3", "n1", "n2", "n3"}
	wantBak := []string{"n2", "n3", "n1", "n2", "n3", "n1"}
	for i, v := range views {
		if v.Primary != wantPri[i] || v.Backup != wantBak[i] {
			t.Fatalf("shard %d = %+v, want {%s %s}", i, v, wantPri[i], wantBak[i])
		}
		if v.Num != uint64(i+1) {
			t.Fatalf("shard %d epoch %d, want %d (global sequence)", i, v.Num, i+1)
		}
	}
	if _, err := d.Form(2); err == nil {
		t.Fatal("second Form should fail")
	}
	names, pris, baks := d.SeatCounts()
	if len(names) != 3 {
		t.Fatalf("seat counts over %v", names)
	}
	for i := range names {
		if pris[i] != 2 || baks[i] != 2 {
			t.Fatalf("uneven seats for %s: %d primaries, %d backups", names[i], pris[i], baks[i])
		}
	}
}

// TestNodeDeathReseatsEveryAffectedShard: killing one node reconfigures
// exactly the shards where it held a seat, each under a fresh globally-unique
// epoch, with promotions where it was primary and recruitment where it was
// backup.
func TestNodeDeathReseatsEveryAffectedShard(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3", "n4")
	if _, err := d.Form(8); err != nil {
		t.Fatal(err)
	}
	before := table(d, 8)
	epochBefore := uint64(8) // Form issued 1..8

	changes, err := d.ReportFailure("n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	affected := 0
	for i, v := range before {
		if v.Primary == "n2" || v.Backup == "n2" {
			affected++
			now := d.Shard(i)
			if now.Num <= epochBefore {
				t.Fatalf("shard %d epoch %d not advanced past %d", i, now.Num, epochBefore)
			}
			if now.Primary == "n2" || now.Backup == "n2" {
				t.Fatalf("shard %d still seats dead node: %+v", i, now)
			}
			if v.Primary == "n2" && now.Primary != v.Backup {
				t.Fatalf("shard %d promotion went to %s, want old backup %s", i, now.Primary, v.Backup)
			}
			if v.Backup == "n2" && now.Primary != v.Primary {
				t.Fatalf("shard %d backup death moved the primary: %+v -> %+v", i, v, now)
			}
		} else if got := d.Shard(i); got != v {
			t.Fatalf("unaffected shard %d changed: %+v -> %+v", i, v, got)
		}
	}
	if len(changes) != affected {
		t.Fatalf("%d changes for %d affected shards", len(changes), affected)
	}
	// Epochs issued by the reseat are unique and consecutive.
	seen := map[uint64]bool{}
	for _, ch := range changes {
		if seen[ch.New.Num] {
			t.Fatalf("epoch %d issued twice", ch.New.Num)
		}
		seen[ch.New.Num] = true
	}
	// Reporting the same death again is a no-op.
	changes, err = d.ReportFailure("n1", "n2")
	if err != nil || len(changes) != 0 {
		t.Fatalf("second report: %v, %d changes", err, len(changes))
	}
}

// TestRecruitmentIsLeastLoaded: after a death the vacancies go to the live
// node with the fewest seats, deterministically.
func TestRecruitmentIsLeastLoaded(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3", "n4", "n5")
	if _, err := d.Form(10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReportFailure("n1", "n3"); err != nil {
		t.Fatal(err)
	}
	names, pris, baks := d.SeatCounts()
	total := 0
	min, max := 1<<30, 0
	for i := range names {
		seats := pris[i] + baks[i]
		total += seats
		if seats < min {
			min = seats
		}
		if seats > max {
			max = seats
		}
	}
	if total != 20 {
		t.Fatalf("seat total %d, want 20 (10 shards x 2 seats)", total)
	}
	if max-min > 2 {
		t.Fatalf("seats unbalanced after recruitment: min %d max %d (%v %v %v)", min, max, names, pris, baks)
	}

	// Determinism: replaying the same join + failure sequence reproduces the
	// identical shard table.
	d2 := newSet(t, "n1", "n2", "n3", "n4", "n5")
	if _, err := d2.Form(10); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.ReportFailure("n1", "n3"); err != nil {
		t.Fatal(err)
	}
	a, b := table(d, 10), table(d2, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs across identical histories: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestShardPromotionGuard: per-shard epochs draw from one global sequence,
// and exactly one license is issued per epoch.
func TestShardPromotionGuard(t *testing.T) {
	d := newSet(t, "n1", "n2", "n3")
	if _, err := d.Form(4); err != nil {
		t.Fatal(err)
	}
	changes, err := d.ReportFailure("n2", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatal("no shards reseated")
	}
	ch := changes[0]
	newPri, epoch := ch.New.Primary, ch.New.Num
	if err := d.AcquirePromotion(newPri, ch.Shard, epoch); err != nil {
		t.Fatalf("first acquisition: %v", err)
	}
	if err := d.AcquirePromotion(newPri, ch.Shard, epoch); !errors.Is(err, ErrAlreadyPromoted) {
		t.Fatalf("second acquisition: %v, want ErrAlreadyPromoted", err)
	}
	if err := d.AcquirePromotion(newPri, ch.Shard, epoch-1000); !errors.Is(err, ErrStaleView) {
		t.Fatalf("stale epoch: %v, want ErrStaleView", err)
	}
	if err := d.AcquirePromotion(ch.New.Backup, ch.Shard, epoch); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("backup acquiring: %v, want ErrNotPrimary", err)
	}
	if err := d.AcquirePromotion("n1", ch.Shard, epoch); !errors.Is(err, ErrDead) {
		t.Fatalf("dead node acquiring: %v, want ErrDead", err)
	}
	if err := d.AcquirePromotion("nope", ch.Shard, epoch); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node acquiring: %v, want ErrUnknownNode", err)
	}
	if err := d.AcquirePromotion(newPri, 99, epoch); err == nil {
		t.Fatal("acquiring a nonexistent shard succeeded")
	}
}
