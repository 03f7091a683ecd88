package fleet

import (
	"testing"
	"time"

	"repro/internal/simtest/clock"
	"repro/internal/wire"
)

// quorumFleet builds a quorum-backend fleet with enough nodes to seat a
// witness per shard.
func quorumFleet(t *testing.T, cfg Config) (*Fleet, *clock.Virtual) {
	t.Helper()
	cfg.Backend = BackendQuorum
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []string{"n1", "n2", "n3", "n4"}
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	return newTestFleet(t, cfg)
}

// shardPeers returns shard's live backup and witness replicas.
func shardPeers(f *Fleet, shard int) (bak, wit *replica) {
	v := f.dir.Shard(shard)
	if v.Backup != "" {
		bak = f.nodes[v.Backup].replicas[shard]
	}
	wit, _ = f.findWitness(shard)
	return bak, wit
}

func TestQuorumSeatsWitnessPerShard(t *testing.T) {
	f, _ := quorumFleet(t, Config{})
	for shard := 0; shard < f.NumShards(); shard++ {
		bak, wit := shardPeers(f, shard)
		if bak == nil || wit == nil {
			t.Fatalf("shard %d: backup %v witness %v, want both seated", shard, bak != nil, wit != nil)
		}
		v := f.dir.Shard(shard)
		pri := f.nodes[v.Primary].replicas[shard]
		if len(pri.links) != 2 {
			t.Fatalf("shard %d primary has %d links, want 2", shard, len(pri.links))
		}
	}
}

// TestQuorumCommitsThroughFrameDrop is the availability win over the pair:
// a frame lost toward one peer does not stall the shard — the op commits
// through the other peer, and the lagging one is repaired by the next
// operation's suffix catch-up.
func TestQuorumCommitsThroughFrameDrop(t *testing.T) {
	f, _ := quorumFleet(t, Config{Shards: 1, Fault: FaultFrameDrop, FaultEvery: 3})
	var obs []Observation
	for req := uint64(1); req <= 9; req++ {
		out := f.Submit(&wire.Request{Client: 1, Req: req, Tenant: 0, Op: wire.OpAdd, Arg: 1})
		r := mustOK(t, out)
		obs = append(obs, Observation{1, req, r.Value})
	}
	c := f.Counters()
	if c.FramesDropped == 0 {
		t.Fatal("fault schedule never struck — the test exercised nothing")
	}
	if c.Resent != 0 {
		t.Fatalf("%d stop-and-wait resends; quorum commits should never have stalled", c.Resent)
	}
	// One more op flushes every suffix; then both peers must hold the log.
	mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 10, Tenant: 0, Op: wire.OpGet}))
	v := f.dir.Shard(0)
	pri := f.nodes[v.Primary].replicas[0]
	bak, wit := shardPeers(f, 0)
	if bak.logged != pri.logged || wit.logged != pri.logged {
		t.Fatalf("peers lag after catch-up: primary %d, backup %d, witness %d",
			pri.logged, bak.logged, wit.logged)
	}
	if err := f.Verify(obs); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumAckDropRepairsLink: a lost ack leaves the link's view behind the
// peer's actual log; the record-high-water ack protocol must repair the view
// on the next ship instead of double-logging or desyncing.
func TestQuorumAckDropRepairsLink(t *testing.T) {
	f, _ := quorumFleet(t, Config{Shards: 1, Fault: FaultAckDrop, FaultEvery: 2})
	var obs []Observation
	for req := uint64(1); req <= 8; req++ {
		out := f.Submit(&wire.Request{Client: 3, Req: req, Tenant: 0, Op: wire.OpAdd, Arg: 2})
		if out.Reply == nil {
			// Both acks struck: the op is pending; the retry commits it.
			out = f.Submit(&wire.Request{Client: 3, Req: req, Tenant: 0, Op: wire.OpAdd, Arg: 2})
		}
		r := mustOK(t, out)
		obs = append(obs, Observation{3, req, r.Value})
	}
	if c := f.Counters(); c.AcksDropped == 0 {
		t.Fatal("fault schedule never struck an ack")
	}
	if err := f.Verify(obs); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumMaxLogPromotion kills a primary whose backup missed a committed
// operation (the witness carried the commit). Promotion must adopt the
// witness's longer log, or the committed op would vanish from the authority.
func TestQuorumMaxLogPromotion(t *testing.T) {
	// FaultEvery=3 strikes the 3rd replication attempt: op1 ships to backup
	// (1) and witness (2); op2's ship to the backup (3) is struck and commits
	// through the witness alone.
	f, clk := quorumFleet(t, Config{Shards: 1, Fault: FaultFrameDrop, FaultEvery: 3})
	clk.Attach()
	defer clk.Detach()
	mustOK(t, f.Submit(&wire.Request{Client: 5, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 10}))
	r2 := mustOK(t, f.Submit(&wire.Request{Client: 5, Req: 2, Tenant: 0, Op: wire.OpAdd, Arg: 7}))
	if r2.Value != 17 {
		t.Fatalf("add = %d, want 17", r2.Value)
	}
	bak, wit := shardPeers(f, 0)
	if bak.logged != 1 || wit.logged != 2 {
		t.Fatalf("setup: backup %d, witness %d records, want 1/2", bak.logged, wit.logged)
	}
	v := f.dir.Shard(0)
	if _, err := f.Kill(v.Primary); err != nil {
		t.Fatal(err)
	}
	if got := f.shardPrimaries()[0].state[0]; got != 17 {
		t.Fatalf("after max-log promotion tenant 0 = %d, want 17", got)
	}
	if err := f.Verify([]Observation{{5, 1, 10}, {5, 2, 17}}); err != nil {
		t.Fatal(err)
	}
	// The dedup table must have come back too: the committed op answers from
	// cache, not by re-execution.
	clk.Sleep(time.Second) // let the replay window pass
	r2b := mustOK(t, f.Submit(&wire.Request{Client: 5, Req: 2, Tenant: 0, Op: wire.OpAdd, Arg: 7}))
	if r2b.Value != 17 {
		t.Fatalf("retry after promotion = %d, want cached 17", r2b.Value)
	}
}

// TestQuorumWitnessDeathRerecruits kills the node hosting a shard's witness
// (no directory seat involved) and expects a replacement seated by snapshot.
func TestQuorumWitnessDeathRerecruits(t *testing.T) {
	f, _ := quorumFleet(t, Config{Shards: 1, Nodes: []string{"n1", "n2", "n3", "n4"}})
	mustOK(t, f.Submit(&wire.Request{Client: 2, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 4}))
	_, witNode := f.findWitness(0)
	if witNode == "" {
		t.Fatal("no witness seated")
	}
	before := f.Counters().Transfers
	if _, err := f.Kill(witNode); err != nil {
		t.Fatal(err)
	}
	wit, newNode := f.findWitness(0)
	if wit == nil || newNode == witNode {
		t.Fatalf("witness not re-recruited (node %q)", newNode)
	}
	v := f.dir.Shard(0)
	pri := f.nodes[v.Primary].replicas[0]
	if wit.logged != pri.logged {
		t.Fatalf("recruit snapshot has %d records, primary %d", wit.logged, pri.logged)
	}
	if f.Counters().Transfers != before+1 {
		t.Fatalf("transfers %d -> %d, want one snapshot", before, f.Counters().Transfers)
	}
	mustOK(t, f.Submit(&wire.Request{Client: 2, Req: 2, Tenant: 0, Op: wire.OpAdd, Arg: 1}))
	if err := f.Verify([]Observation{{2, 1, 4}, {2, 2, 5}}); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumWitnessConvertsToBackup: with exactly three nodes, killing the
// backup forces the directory to seat the new backup on the witness's node —
// the witness must convert in place and a fresh witness is impossible.
func TestQuorumWitnessConvertsToBackup(t *testing.T) {
	f, _ := quorumFleet(t, Config{Shards: 1, Nodes: []string{"n1", "n2", "n3"}})
	mustOK(t, f.Submit(&wire.Request{Client: 9, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 30}))
	v := f.dir.Shard(0)
	_, witNode := f.findWitness(0)
	if _, err := f.Kill(v.Backup); err != nil {
		t.Fatal(err)
	}
	nv := f.dir.Shard(0)
	if nv.Backup != witNode {
		t.Fatalf("new backup on %s, want the witness node %s", nv.Backup, witNode)
	}
	bak := f.nodes[nv.Backup].replicas[0]
	if bak.role != roleBackup {
		t.Fatalf("witness did not convert: role %d", bak.role)
	}
	if w, _ := f.findWitness(0); w != nil {
		t.Fatal("a witness exists with every live node already holding the shard")
	}
	mustOK(t, f.Submit(&wire.Request{Client: 9, Req: 2, Tenant: 0, Op: wire.OpAdd, Arg: 3}))
	if err := f.Verify([]Observation{{9, 1, 30}, {9, 2, 33}}); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumStaleFrameRejected: the epoch gate guards the quorum receive
// path exactly as it guards the pair's.
func TestQuorumStaleFrameRejected(t *testing.T) {
	f, _ := quorumFleet(t, Config{Shards: 1})
	mustOK(t, f.Submit(&wire.Request{Client: 4, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 2}))
	v := f.dir.Shard(0)
	if _, err := f.Kill(v.Primary); err != nil {
		t.Fatal(err)
	}
	if logged := f.InjectStaleFrame(0, v.Num); logged {
		t.Fatal("stale-epoch frame reached a quorum peer's log")
	}
	if c := f.Counters(); c.StaleFrames == 0 {
		t.Fatal("stale frame not counted")
	}
	if err := f.Verify([]Observation{{4, 1, 2}}); err != nil {
		t.Fatal(err)
	}
}
