package simtest

import (
	"testing"
)

// replaySeeds is the regression table of fault schedules pinned to failure
// classes found (and fixed) by earlier soak runs — see CHANGES.md PR 1–3.
// Each entry is a full replay string (the same format `ftvm-sim -replay`
// takes and the sweep prints on failure), so a regression reproduces from
// the table line alone. `make replay-seeds` runs exactly this test.
//
// The schedules were chosen to drive the fixed code paths, not recorded at
// the moment of discovery (the original failures predate the deterministic
// harness): what is pinned is that each historical failure *class* stays
// green under an exact, seed-reproducible schedule.
var replaySeeds = []struct{ class, key string }{
	{
		// PR 2: RunWithFailover kill-vs-clean-completion race (ftvm.go) —
		// the kill lands on the last frames, racing the halt marker.
		"kill racing clean completion",
		"prog=1,size=small,mode=lock,kill=5,deliver=1,fault=none@0,net=1,reorder=1/8",
	},
	{
		// PR 2: lock-replay recovery deadlock on a log cut between an
		// id-map record and its acquisition record (lockreplay.go) — an
		// early frame-boundary cut in lock mode.
		"lock-replay log cut at frame boundary",
		"prog=2,size=small,mode=lock,kill=2,deliver=1,fault=none@0,net=1,reorder=1/8",
	},
	{
		// PR 3: drawn-but-unshipped device results (devices sehandler) —
		// the primary dies mid-send, losing records for entropy already
		// consumed; recovery must reposition the seeded device streams.
		"unshipped device draws at crash",
		"prog=3,size=small,mode=sched,kill=3,deliver=0,fault=none@0,net=2,reorder=1/8",
	},
	{
		// PR 1: last-ack window — a one-way partition eats acks, so the
		// primary declares the backup lost while the backup may hold a
		// clean log (two-sided detection, exactly-once across the split).
		"ack partition in the last-ack window",
		"prog=1,size=small,mode=lockint,kill=0,deliver=0,fault=partition-recv@2,net=1,reorder=1/8",
	},
	{
		// PR 1: sequence-gap detection (wire.SeqGate) — a dropped frame
		// must surface as a failover with a consistent logged prefix.
		"frame drop forces a seq-gap failover",
		"prog=2,size=small,mode=sched,kill=0,deliver=0,fault=drop-send@3,net=1,reorder=1/8",
	},
	{
		// PR 1: duplicate frames re-acked, not re-logged — exactly-once
		// under a duplicating channel.
		"duplicated frame is dropped and re-acked",
		"prog=4,size=small,mode=lock,kill=0,deliver=0,fault=dup-send@2,net=1,reorder=1/8",
	},
	{
		// This PR: ack-loop desync — the primary's first awaited ack arrives
		// with a flipped byte and a garbage tail. The old `seq >= wantSeq`
		// loop could let a mangled ack satisfy an output commit; the fixed
		// loop aborts with ErrProtocolDesync and the backup takes over.
		"corrupt ack trips the desync guard",
		"prog=3,size=small,mode=lock,kill=0,deliver=0,fault=corrupt-recv@1,net=5,reorder=1/8",
	},
	{
		// Reorder stress: with every other message skipping the FIFO
		// clamp the backup sees heavy out-of-order delivery; the SeqGate
		// must sort real gaps from mere reordering.
		"aggressive reordering under a mid-run kill",
		"prog=3,size=small,mode=lock,kill=4,deliver=1,fault=none@0,net=6,reorder=1/2",
	},
	{
		// PR 9: epoch-based branch counter — a sched-mode kill whose log
		// cuts between two progress flushes. Recovery replays to an exact
		// (br_cnt, method, pc) target; the engine must step the stop epoch
		// and land on the identical instruction.
		"sched replay cut between epoch flushes (threaded)",
		"prog=5,size=small,mode=sched,kill=6,deliver=0,fault=none@0,net=1,reorder=1/8",
	},
	{
		// The same schedule stepped throughout. A key no longer
		// names the interpreter stream (it does not change the log), so
		// this row and the block-edge one below replay the default stream;
		// the identity gates (TestThreeWay*, TestDispatchDualMode*) pin
		// the stepped stream to the fused one.
		"sched replay cut between epoch flushes (switch)",
		"prog=5,size=small,mode=sched,kill=6,deliver=0,fault=none@0,net=1,reorder=1/8",
	},
	{
		// PR 9: kill delivered on a block edge — the final frame ships and
		// the recovery target lands exactly on a branch boundary, the case
		// where the threaded engine's block-boundary check (not a
		// per-instruction check) must stop the slice.
		"sched kill lands on a block edge (threaded)",
		"prog=6,size=small,mode=sched,kill=4,deliver=1,fault=none@0,net=2,reorder=1/8",
	},
	{
		"sched kill lands on a block edge (switch)",
		"prog=6,size=small,mode=sched,kill=4,deliver=1,fault=none@0,net=2,reorder=1/8",
	},
}

// viewReplaySeeds pins the failure classes closed by this PR's view-change
// work, one exact replay string per class (same workflow as replaySeeds:
// `ftvm-sim -replay` takes these strings verbatim).
var viewReplaySeeds = []struct{ class, key string }{
	{
		// Split-brain probe: a deposed primary's epoch-1 frame delivered to
		// the recruit right after the state transfer must be dropped without
		// an ack (epoch gate ahead of the sequence gate).
		"stale-epoch frame after promotion",
		"prog=3,size=small,mode=lock,kill1=4,d1=0,kill2=0,d2=0,fault=none@0,inject=1,net=5,reorder=1/8",
	},
	{
		// Ack-loop desync on the new pair: the transfer's first ack arrives
		// corrupted, the promoted primary must refuse it (ErrProtocolDesync)
		// and the recruit finishes the job from its logged prefix.
		"corrupt ack during state transfer",
		"prog=3,size=small,mode=lock,kill1=3,d1=0,kill2=0,d2=0,fault=corrupt-recv@1,inject=0,net=5,reorder=1/8",
	},
	{
		// n−1 survival with the double-takeover guard in the path: two
		// sequential promotions, each acquiring its view exactly once.
		"sequential failures through two promotions",
		"prog=3,size=small,mode=sched,kill1=3,d1=0,kill2=6,d2=1,fault=none@0,inject=0,net=5,reorder=1/8",
	},
	{
		// The promoted primary dies on the transfer's first frame: the
		// recruit holds at most a partial prefix and must still reproduce
		// the reference exactly once.
		"death on the first transfer frame",
		"prog=3,size=small,mode=lockint,kill1=4,d1=0,kill2=1,d2=0,fault=none@0,inject=0,net=5,reorder=1/8",
	},
	{
		// Partition on the new pair mid-tail: the promoted primary loses its
		// recruit and the recruit's takeover closes the chain.
		"partition between promoted primary and recruit",
		"prog=3,size=small,mode=lock,kill1=3,d1=1,kill2=0,d2=0,fault=partition-send@4,inject=0,net=5,reorder=1/8",
	},
}

// fleetReplaySeeds is the fleet regression table: replay keys distilled from
// failure classes fixed while building the fleet. Each line is a complete
// repro (go run ./cmd/ftvm-sim -replay "<key>").
var fleetReplaySeeds = []struct{ class, key string }{
	{
		// Promotion replay diverged when a fresh op executed while an earlier
		// op's frame was still unacked; fixed by the head-of-line pending
		// barrier (stop-and-wait admits one in-flight op per shard).
		class: "framedrop-pending-barrier",
		key:   "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=framedrop/13,inject=0",
	},
	{
		// A record was logged twice when recruitment state transfer copied an
		// unacked record that the primary then retransmitted; fixed by
		// counting the transfer itself as the commit.
		class: "ackdrop-transfer-commits-pending",
		key:   "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=ackdrop/13,inject=0",
	},
	{
		// A committed op's lost reply must be answered from the promoted
		// replica's replayed dedup table, not re-executed.
		class: "replydrop-failover-dedup",
		key:   "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=replydrop/13,inject=0",
	},
	{
		// Two kills force a second round of reseats including shards already
		// running on a recruited backup's transferred state.
		class: "double-kill-rebalance",
		key:   "seed=11,nodes=4,shards=8,clients=1000,ops=3,ka=1@200,kb=2@700,fault=none/0,inject=0",
	},
	{
		// A deposed configuration's frame probed at a reseated shard must be
		// dropped by the epoch gate, never logged.
		class: "stale-epoch-straggler",
		key:   "seed=7,nodes=4,shards=8,clients=800,ops=3,ka=2@200,kb=0@0,fault=none/0,inject=1",
	},
	{
		// Larger population: sampling path + route-cache staleness at scale.
		class: "scale-sampled-verify",
		key:   "seed=5,nodes=5,shards=16,clients=10000,ops=2,ka=2@400,kb=0@0,fault=none/0,inject=0",
	},
	{
		// Quorum seating on three nodes: every node already holds every
		// shard, so each of the four reseats the kill causes (two promotions,
		// two backup deaths) seats the backup chair on the witness's node —
		// the witness converts in place and its link repairs it by suffix
		// (transfers=0 in the trace: no snapshot was cut).
		class: "quorum-witness-converts-in-place",
		key:   "seed=3,nodes=3,shards=6,clients=600,ops=3,ka=2@250,kb=0@0,fault=none/0,inject=0,backend=quorum",
	},
	{
		// Max-log promotion: every third frame is dropped, so a third of the
		// operations commit through the witness alone; n4 dies holding two
		// shards whose backups are one such operation behind. The promoted
		// backups must adopt the witnesses' longer logs, or answered
		// operations vanish from the authority and Verify fails.
		class: "quorum-max-log-promotion",
		key:   "seed=1,nodes=4,shards=8,clients=1000,ops=3,ka=4@300,kb=0@0,fault=framedrop/3,inject=0,backend=quorum",
	},
}

// consensusReplaySeeds pins the consensus backend's historical failure
// classes to exact, seed-reproducible schedules, mirroring replaySeeds for
// the pair path. Each key replays via `ftvm-sim -replay` and through
// `make replay-seeds`.
var consensusReplaySeeds = []struct{ class, key string }{
	{
		// This PR: leader killed mid-commit — the kill lands between a
		// majority ack and output release, so recovery must rebuild from the
		// committed prefix and the new leader's barrier entry must carry the
		// surviving tail (the Raft no-op commit rule).
		"leader kill mid-commit",
		"prog=1,size=small,mode=lock,who=leader,kill=5,deliver=1,part=0+0,inject=0,fault=none@0,eseed=1,net=1,reorder=1/8",
	},
	{
		// This PR: stale-term frame — an AppendEntries from a dead term must
		// be rejected and counted, never folded into the log. The harness
		// injects a term-0 probe at a follower mid-run; the sweep asserts
		// StaleTerms > 0 on top of trace identity.
		"stale-term frame rejected",
		"prog=2,size=small,mode=sched,who=follower,kill=0,deliver=0,part=0+0,inject=1,fault=none@0,eseed=1,net=1,reorder=1/8",
	},
	{
		// This PR: split vote — election seed 7 makes two replicas campaign
		// simultaneously; the split must resolve through the third voter
		// without disturbing the output stream. (The original livelock was a
		// Weyl-lattice correlation in electionRNG: correlated timeout streams
		// re-split the vote forever.)
		"split vote resolves via third voter",
		"prog=3,size=small,mode=lock,who=follower,kill=0,deliver=0,part=0+0,inject=0,fault=none@0,eseed=7,net=1,reorder=1/8",
	},
	{
		// Contested election AND a leader kill: the term-1 leader that won a
		// split vote dies mid-run, forcing a second, uncontested election on
		// already-perturbed timeout streams.
		"leader kill after a contested election",
		"prog=1,size=small,mode=lock,who=leader,kill=3,deliver=0,part=0+0,inject=0,fault=none@0,eseed=7,net=1,reorder=1/8",
	},
	{
		// A finite partition window on a follower link: the follower falls
		// behind, then catches up via the leader's nextIndex backoff; commit
		// progress must continue on the unaffected majority throughout.
		"follower partition heals by log catch-up",
		"prog=2,size=small,mode=lockint,who=follower,kill=0,deliver=0,part=3+4,inject=0,fault=none@0,eseed=1,net=1,reorder=1/8",
	},
	{
		// Link fault plus follower kill: a corrupting link exercises the
		// malformed-message drop path while a follower dies, leaving exactly
		// a bare majority to carry the run.
		"corrupt link with a follower kill",
		"prog=4,size=small,mode=lock,who=follower,kill=4,deliver=0,part=0+0,inject=0,fault=corrupt-recv@2,eseed=1,net=2,reorder=1/8",
	},
}

// replaySeedTables is every historical table with the kind its keys must
// parse as.
var replaySeedTables = []struct {
	kind  Kind
	seeds []struct{ class, key string }
}{
	{KindPair, replaySeeds},
	{KindView, viewReplaySeeds},
	{KindFleet, fleetReplaySeeds},
	{KindConsensus, consensusReplaySeeds},
}

// TestReplaySeeds replays the four regression tables through the same
// ParseKey + Run path `ftvm-sim -replay` takes. A failure here means a
// previously-fixed failure class has reopened; the table line is the repro.
func TestReplaySeeds(t *testing.T) {
	for _, tbl := range replaySeedTables {
		for _, rs := range tbl.seeds {
			t.Run(tbl.kind.String()+"/"+rs.class, func(t *testing.T) {
				sc, err := ParseKey(rs.key)
				if err != nil {
					t.Fatalf("table entry %q: %v", rs.key, err)
				}
				if sc.Kind() != tbl.kind {
					t.Fatalf("table entry %q parsed as a %s key, want %s", rs.key, sc.Kind(), tbl.kind)
				}
				if got := Key(sc); got != rs.key {
					t.Fatalf("table entry does not render back to itself:\n  in  %s\n  out %s", rs.key, got)
				}
				out := Run(sc)
				if out.Failed() {
					t.Fatalf("regression in %q:\n%s\nreplay: %s", rs.class, out.TraceLine(), out.ReplayCommand())
				}
				t.Logf("%s", out.TraceLine())
			})
		}
	}
}
