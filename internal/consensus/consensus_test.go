package consensus

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/wire"
)

// scenario runs fn as a virtual-clock actor and blocks the test goroutine
// until it finishes; every cluster interaction (WaitLeader, WaitCommit,
// Sleep-polling) must happen inside fn, never on the bare test goroutine.
func scenario(t *testing.T, clk *clock.Virtual, fn func()) {
	t.Helper()
	defer clk.Watchdog(30 * time.Second)()
	var done sync.WaitGroup
	done.Add(1)
	clk.Go(func() {
		defer done.Done()
		fn()
	})
	done.Wait()
}

func recordBatch(t *testing.T, recs ...wire.Record) []byte {
	t.Helper()
	var buf wire.Buffer
	for _, r := range recs {
		if err := buf.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

func TestElectionConverges(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scenario(t, clk, func() {
		c.Start()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			c.Stop()
			return
		}
		ready := 0
		for i := 0; i < c.Size(); i++ {
			if c.Replica(i).Ready() {
				ready++
			}
		}
		if ready != 1 {
			t.Errorf("%d ready leaders, want exactly 1", ready)
		}
		s := leader.Snapshot()
		if s.Term == 0 || s.Wins == 0 || s.CommitIndex == 0 {
			t.Errorf("leader stats %+v: want term, win, and committed barrier", s)
		}
		c.Stop()
	})
}

func TestProposeCommitRoundTrip(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.Record{
		&wire.IDMap{LID: 1, TID: "t1", TASN: 1},
		&wire.LockAcq{TID: "t1", TASN: 1, LID: 1, LASN: 1},
		&wire.Halt{},
	}
	scenario(t, clk, func() {
		defer c.Stop()
		c.Start()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		// Two batches: an async-style one and an output commit.
		idx1, term1, err := leader.Propose(recordBatch(t, want[0], want[1]), false)
		if err != nil {
			t.Error(err)
			return
		}
		idx2, term2, err := leader.Propose(recordBatch(t, want[2]), true)
		if err != nil {
			t.Error(err)
			return
		}
		if idx2 != idx1+1 || term2 != term1 {
			t.Errorf("proposal tickets (%d,%d) (%d,%d): want consecutive same-term", idx1, term1, idx2, term2)
		}
		if err := leader.WaitCommit(idx2, term2, time.Second); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		got, err := c.CommittedRecords(leader.ID())
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(want) {
			t.Errorf("leader committed %d records, want %d", len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Type() != want[i].Type() {
				t.Errorf("record %d: %s, want %s", i, got[i].Type(), want[i].Type())
			}
		}
		// Followers learn the commit index from the next heartbeat; their
		// committed prefix must converge to the same stream.
		for i := 0; i < c.Size(); i++ {
			if i == leader.ID() {
				continue
			}
			for c.Replica(i).Snapshot().CommitIndex < idx2 {
				clk.Sleep(time.Millisecond)
			}
			frecs, err := c.CommittedRecords(i)
			if err != nil {
				t.Error(err)
				return
			}
			if len(frecs) != len(want) {
				t.Errorf("follower %d committed %d records, want %d", i, len(frecs), len(want))
			}
		}
	})
}

func TestFollowerKillCommitsProceed(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	scenario(t, clk, func() {
		defer c.Stop()
		c.Start()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		// Kill one follower: 2 of 3 is still a majority.
		for i := 0; i < c.Size(); i++ {
			if i != leader.ID() {
				c.Kill(i)
				break
			}
		}
		idx, term, err := leader.Propose(recordBatch(t, &wire.Halt{}), true)
		if err != nil {
			t.Error(err)
			return
		}
		if err := leader.WaitCommit(idx, term, time.Second); err != nil {
			t.Errorf("commit with one dead follower: %v", err)
		}
	})
}

func TestLeaderKillFailover(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scenario(t, clk, func() {
		defer c.Stop()
		c.Start()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		idx, term, err := leader.Propose(recordBatch(t, &wire.IDMap{LID: 9, TID: "t9", TASN: 1}), true)
		if err != nil {
			t.Error(err)
			return
		}
		if err := leader.WaitCommit(idx, term, time.Second); err != nil {
			t.Error(err)
			return
		}
		oldID, oldTerm := leader.ID(), term
		c.Kill(oldID)
		next, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Errorf("no failover leader: %v", err)
			return
		}
		if next.ID() == oldID {
			t.Errorf("dead replica %d re-elected", oldID)
		}
		if got := next.Term(); got <= oldTerm {
			t.Errorf("failover term %d not beyond %d", got, oldTerm)
		}
		// The committed entry survives the leader's death: that is the whole
		// point of majority output commit.
		recs, err := c.CommittedRecords(next.ID())
		if err != nil {
			t.Error(err)
			return
		}
		found := false
		for _, r := range recs {
			if m, ok := r.(*wire.IDMap); ok && m.LID == 9 {
				found = true
			}
		}
		if !found {
			t.Error("committed entry lost across leader failover")
		}
	})
}

func TestStaleAndMalformedInjection(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	scenario(t, clk, func() {
		defer c.Stop()
		c.Start()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		before := leader.Snapshot()
		// A frame from term 0 — strictly older than any elected term — must
		// bounce off the term gate without touching the log (the consensus
		// analogue of the pair's stale-epoch drop).
		from := (leader.ID() + 1) % c.Size()
		leader.Inject(encodeAppend(0, from, 0, 0, 0, 1, []entry{{term: 0, payload: nil}}))
		// Garbage must be counted and dropped, never acted on.
		leader.Inject([]byte{0xEE, 0x01, 0x02})
		for {
			s := leader.Snapshot()
			if s.StaleTerms > before.StaleTerms && s.Malformed > before.Malformed {
				if s.LogLen != before.LogLen {
					t.Errorf("stale/malformed injection grew the log: %d -> %d", before.LogLen, s.LogLen)
				}
				if s.Term != before.Term || s.Role != Leader {
					t.Errorf("injection moved the leader: %+v -> %+v", before, s)
				}
				return
			}
			clk.Sleep(time.Millisecond)
		}
	})
}

func TestNonLeaderRejectsProposals(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	scenario(t, clk, func() {
		defer c.Stop()
		c.Start()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		follower := c.Replica((leader.ID() + 1) % c.Size())
		if _, _, err := follower.Propose([]byte{}, false); !errors.Is(err, ErrNotLeader) {
			t.Errorf("follower Propose: %v, want ErrNotLeader", err)
		}
		if err := follower.WaitCommit(99, 99, time.Second); !errors.Is(err, ErrLeadershipLost) {
			t.Errorf("follower WaitCommit: %v, want ErrLeadershipLost", err)
		}
	})
}

// TestElectionDeterminism: the same seed replays the same election — winner
// and term — which is what lets the sweep harness pin byte-identical traces.
func TestElectionDeterminism(t *testing.T) {
	run := func(seed uint64) (int, uint64) {
		clk := clock.NewVirtual()
		c, err := NewCluster(Config{Clock: clk, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var id int
		var term uint64
		scenario(t, clk, func() {
			defer c.Stop()
			c.Start()
			leader, err := c.WaitLeader(time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			id, term = leader.ID(), leader.Term()
		})
		return id, term
	}
	id1, term1 := run(21)
	id2, term2 := run(21)
	if id1 != id2 || term1 != term2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", id1, term1, id2, term2)
	}
}

// TestBackendShipAndLoss drives the CoordinationBackend adapter: committed
// ships reach the replicated log, and a dead cluster surfaces as the same
// latched ErrBackupLost the pair backend reports.
func TestBackendShipAndLoss(t *testing.T) {
	clk := clock.NewVirtual()
	c, err := NewCluster(Config{Clock: clk, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	scenario(t, clk, func() {
		c.Start()
		defer c.Stop()
		leader, err := c.WaitLeader(time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		be := NewBackend(leader, time.Second)
		if err := be.Ship(recordBatch(t, &wire.IDMap{LID: 2, TID: "t2", TASN: 1}), false); err != nil {
			t.Errorf("async ship: %v", err)
			return
		}
		if err := be.Ship(recordBatch(t, &wire.Halt{}), true); err != nil {
			t.Errorf("committed ship: %v", err)
			return
		}
		if be.Lost() {
			t.Error("healthy backend reports Lost")
		}
		if be.Epoch() == 0 {
			t.Error("backend epoch (term) is zero")
		}
		recs, err := c.CommittedRecords(leader.ID())
		if err != nil {
			t.Error(err)
			return
		}
		if len(recs) != 2 {
			t.Errorf("committed %d records, want 2", len(recs))
		}
		// Kill a majority: the next committed ship must fail as backup loss.
		killed := 0
		for i := 0; i < c.Size() && killed < 2; i++ {
			if i != leader.ID() {
				c.Kill(i)
				killed++
			}
		}
		err = be.Ship(recordBatch(t, &wire.Halt{}), true)
		if !errors.Is(err, replication.ErrBackupLost) {
			t.Errorf("ship without quorum: %v, want ErrBackupLost", err)
		}
		if !be.Lost() {
			t.Error("loss not latched")
		}
		if err := be.Close(); err != nil {
			t.Error(err)
		}
	})
}

// TestRealClockSmoke exercises the defaults on the wall clock — the path
// ftvm.RunReplicated takes when no virtual clock is injected.
func TestRealClockSmoke(t *testing.T) {
	c, err := NewCluster(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	leader, err := c.WaitLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	idx, term, err := leader.Propose([]byte{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.WaitCommit(idx, term, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
