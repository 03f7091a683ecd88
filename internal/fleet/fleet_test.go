package fleet

import (
	"testing"
	"time"

	"repro/internal/simtest/clock"
	"repro/internal/wire"
)

func newTestFleet(t *testing.T, cfg Config) (*Fleet, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	cfg.Clock = clk
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []string{"n1", "n2", "n3"}
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, clk
}

// mustOK returns a copy of out's OK reply, so a caller that keeps one Reply
// across requests cannot see an earlier result overwritten.
func mustOK(t *testing.T, out Outcome) wire.Reply {
	t.Helper()
	if out.Reply == nil {
		t.Fatal("silent outcome, want OK reply")
	}
	if out.Reply.Status != wire.StatusOK {
		t.Fatalf("status %s, want ok", wire.StatusName(out.Reply.Status))
	}
	return *out.Reply
}

func TestServeAndDedup(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	req := &wire.Request{Client: 7, Req: 1, Tenant: 10, Op: wire.OpAdd, Arg: 5}
	r1 := mustOK(t, f.Submit(req))
	if r1.Value != 5 {
		t.Fatalf("add 5 = %d", r1.Value)
	}
	// Retrying the same (client, req) must not re-execute.
	r2 := mustOK(t, f.Submit(req))
	if r2.Value != 5 {
		t.Fatalf("dup retry = %d, want cached 5", r2.Value)
	}
	if c := f.Counters(); c.Executed != 1 || c.DupHits != 1 {
		t.Fatalf("executed %d dupHits %d, want 1/1", c.Executed, c.DupHits)
	}
	// The next request id executes fresh.
	r3 := mustOK(t, f.Submit(&wire.Request{Client: 7, Req: 2, Tenant: 10, Op: wire.OpAdd, Arg: 5}))
	if r3.Value != 10 {
		t.Fatalf("second add = %d, want 10", r3.Value)
	}
	// A regressed request id is rejected, not replayed.
	out := f.Submit(&wire.Request{Client: 7, Req: 1, Tenant: 10, Op: wire.OpAdd, Arg: 5})
	if out.Reply == nil || out.Reply.Status != wire.StatusStaleReq {
		t.Fatalf("regressed req: %+v, want StaleReq", out.Reply)
	}
	if err := f.Verify([]Observation{{7, 1, 5}, {7, 2, 10}}); err != nil {
		t.Fatal(err)
	}
}

func TestNotOwnerRouting(t *testing.T) {
	f, _ := newTestFleet(t, Config{})
	node, shard, epoch := f.Route(0)
	if shard != 0 {
		t.Fatalf("tenant 0 on shard %d", shard)
	}
	// Address a node that is not tenant 0's primary.
	wrong := ""
	for _, n := range f.Nodes() {
		if n != node {
			wrong = n
			break
		}
	}
	var reply wire.Reply
	out := f.SubmitTo(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpGet}, wrong, &reply)
	if out.Reply != &reply || reply.Status != wire.StatusNotOwner {
		t.Fatalf("wrong node: %+v, want NotOwner", out.Reply)
	}
	if out.Reply.Epoch != epoch {
		t.Fatalf("NotOwner hint epoch %d, want %d", out.Reply.Epoch, epoch)
	}
}

// TestFailoverDedupFromReplayedLog is the at-most-once-across-failover story:
// an op commits (logged + acked) but its reply is lost; the primary dies; the
// client's retry lands on the promoted backup and must be answered from the
// replayed log without a second execution.
func TestFailoverDedupFromReplayedLog(t *testing.T) {
	f, clk := newTestFleet(t, Config{Fault: FaultReplyDrop, FaultEvery: 1})
	clk.Attach()
	defer clk.Detach()

	req := &wire.Request{Client: 42, Req: 1, Tenant: 0, Op: wire.OpAdd, Arg: 9}
	out := f.Submit(req)
	if out.Reply != nil {
		t.Fatalf("reply-drop fault delivered a reply: %+v", out.Reply)
	}
	if c := f.Counters(); c.Executed != 1 || c.RepliesLost != 1 {
		t.Fatalf("executed %d repliesLost %d", c.Executed, c.RepliesLost)
	}

	// Kill the shard's primary before any retry.
	oldPri, shard, oldEpoch := f.Route(0)
	if _, err := f.Kill(oldPri); err != nil {
		t.Fatal(err)
	}
	newPri, _, newEpoch := f.Route(0)
	if newPri == oldPri || newEpoch <= oldEpoch {
		t.Fatalf("no reseat: %s@%d -> %s@%d", oldPri, oldEpoch, newPri, newEpoch)
	}

	// Mid-promotion the shard refuses service.
	out = f.Submit(req)
	if out.Reply == nil || out.Reply.Status != wire.StatusUnavailable {
		t.Fatalf("mid-promotion: %+v, want Unavailable", out.Reply)
	}
	clk.Sleep(time.Second) // let the replay window pass

	// The retry: answered from the promoted replica's replayed log.
	f.cfg.Fault = FaultNone
	r := mustOK(t, f.Submit(req))
	if r.Value != 9 {
		t.Fatalf("retry after failover = %d, want original 9", r.Value)
	}
	if r.Epoch != newEpoch {
		t.Fatalf("retry epoch %d, want %d", r.Epoch, newEpoch)
	}
	if c := f.Counters(); c.Executed != 1 {
		t.Fatalf("executed %d after failover retry, want still 1", c.Executed)
	}
	if err := f.Verify([]Observation{{42, 1, 9}}); err != nil {
		t.Fatal(err)
	}
	_ = shard
}

// TestAckDropRetransmitsSameSeq: a lost ack leaves the op logged on the
// backup but uncommitted on the primary; the retry retransmits under the
// same sequence, the backup — which holds the record — re-acks it, and the
// op commits without a second log entry or execution.
func TestAckDropRetransmitsSameSeq(t *testing.T) {
	f, _ := newTestFleet(t, Config{Fault: FaultAckDrop, FaultEvery: 1})
	req := &wire.Request{Client: 5, Req: 1, Tenant: 1, Op: wire.OpSet, Arg: 77}
	out := f.Submit(req)
	if out.Reply != nil {
		t.Fatalf("ack-drop delivered a reply: %+v", out.Reply)
	}
	f.cfg.Fault = FaultNone
	r := mustOK(t, f.Submit(req))
	if r.Value != 77 {
		t.Fatalf("retry = %d", r.Value)
	}
	c := f.Counters()
	if c.Executed != 1 || c.Resent != 1 || c.AcksDropped != 1 {
		t.Fatalf("counters %+v, want 1 executed / 1 resent / 1 ack dropped", c)
	}
	// Exactly one copy in the backup log despite two transmissions.
	shard := f.ShardOf(1)
	v := f.Shard(shard)
	bak := f.nodes[v.Backup].replicas[shard]
	if bak.logged != 1 {
		t.Fatalf("backup logged %d records, want 1", bak.logged)
	}
	if err := f.Verify([]Observation{{5, 1, 77}}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameDropRetransmits: a lost frame never reaches the backup; the retry
// ships the same sequence fresh and commits.
func TestFrameDropRetransmits(t *testing.T) {
	f, _ := newTestFleet(t, Config{Fault: FaultFrameDrop, FaultEvery: 1})
	req := &wire.Request{Client: 5, Req: 1, Tenant: 1, Op: wire.OpAdd, Arg: 3}
	if out := f.Submit(req); out.Reply != nil {
		t.Fatalf("frame-drop delivered a reply: %+v", out.Reply)
	}
	f.cfg.Fault = FaultNone
	r := mustOK(t, f.Submit(req))
	if r.Value != 3 {
		t.Fatalf("retry = %d", r.Value)
	}
	if c := f.Counters(); c.Executed != 1 || c.FramesDropped != 1 {
		t.Fatalf("counters %+v", c)
	}
	if err := f.Verify(nil); err != nil {
		t.Fatal(err)
	}
}

// TestStaleEpochFrameRejected: a frame stamped with a deposed configuration's
// epoch is dropped silently by the backup — the split-brain gate at fleet
// scale.
func TestStaleEpochFrameRejected(t *testing.T) {
	f, clk := newTestFleet(t, Config{Nodes: []string{"n1", "n2", "n3", "n4"}, Shards: 4})
	clk.Attach()
	defer clk.Detach()
	mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpAdd, Arg: 1}))
	oldPri, shard, oldEpoch := f.Route(0)
	if _, err := f.Kill(oldPri); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(time.Second)
	if logged := f.InjectStaleFrame(shard, oldEpoch); logged {
		t.Fatal("stale-epoch frame was logged")
	}
	if c := f.Counters(); c.StaleFrames != 1 {
		t.Fatalf("staleFrames = %d, want 1", c.StaleFrames)
	}
	// The shard still serves correctly afterwards.
	r := mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 2, Tenant: 0, Op: wire.OpGet}))
	if r.Value != 1 {
		t.Fatalf("post-injection get = %d, want 1", r.Value)
	}
	if err := f.Verify([]Observation{{1, 1, 1}, {1, 2, 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceAfterKill: a kill reseats every affected shard, recruits
// backups by state transfer, and the whole fleet keeps serving every tenant
// with state intact.
func TestRebalanceAfterKill(t *testing.T) {
	f, clk := newTestFleet(t, Config{Nodes: []string{"n1", "n2", "n3", "n4"}, Shards: 8})
	clk.Attach()
	defer clk.Detach()
	// Populate every shard.
	for tenant := uint64(0); tenant < 16; tenant++ {
		mustOK(t, f.Submit(&wire.Request{Client: 100 + tenant, Req: 1, Tenant: tenant, Op: wire.OpSet, Arg: int64(tenant * 10)}))
	}
	changes, err := f.Kill("n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatal("kill reseated nothing")
	}
	for _, ch := range changes {
		if ch.New.Primary == "n2" || ch.New.Backup == "n2" {
			t.Fatalf("shard %d still seats dead node: %+v", ch.Shard, ch.New)
		}
		if ch.New.Backup == "" {
			t.Fatalf("shard %d recruited no backup with 3 live nodes", ch.Shard)
		}
	}
	clk.Sleep(time.Second)
	// Every tenant's state survived, including on reseated shards, and the
	// recruited backups replicate (second round of writes commits).
	for tenant := uint64(0); tenant < 16; tenant++ {
		r := mustOK(t, f.Submit(&wire.Request{Client: 100 + tenant, Req: 2, Tenant: tenant, Op: wire.OpAdd, Arg: 1}))
		if r.Value != int64(tenant*10)+1 {
			t.Fatalf("tenant %d after failover = %d, want %d", tenant, r.Value, tenant*10+1)
		}
	}
	if err := f.Verify(nil); err != nil {
		t.Fatal(err)
	}
	if c := f.Counters(); c.Promotions == 0 || c.Transfers == 0 {
		t.Fatalf("counters %+v, want promotions and transfers", c)
	}
}

// TestChecksumDeterminism: identical request sequences yield identical
// Audit checksums; different sequences yield different ones.
func TestChecksumDeterminism(t *testing.T) {
	run := func(arg int64) uint64 {
		f, _ := newTestFleet(t, Config{})
		for i := uint64(1); i <= 20; i++ {
			mustOK(t, f.Submit(&wire.Request{Client: i, Req: 1, Tenant: i % 7, Op: wire.OpAdd, Arg: arg}))
		}
		sum, err := f.Audit(nil)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b, c := run(3), run(3), run(4)
	if a != b {
		t.Fatalf("identical runs: %x != %x", a, b)
	}
	if a == c {
		t.Fatal("different workloads collided")
	}
}
