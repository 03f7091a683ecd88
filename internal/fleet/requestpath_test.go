package fleet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFreshSubmitAllocBudget: a steady-state fresh request allocates nothing
// end to end, on either backend. The caller keeps one Reply and every request
// answers into it; the op is encoded once, onto the log; the frame is cut from
// the log into the fleet's scratch buffer; the dedup entry is held by value;
// each peer decodes its Frame by value and appends its ack into the fleet's
// ack buffer. Log chunks and map growth are amortised below one allocation
// per request.
//
// The bytes are budgeted too, over a long run of fresh clients after the
// warm-up. They are the request's share of each replica's log (a chunk is
// allocated once and never re-copied) and of the dedup map's growth.
// Measured here (go1.24, linux/amd64), a request costs 85-86 B with the pair
// and 95-96 B with a quorum; when every reply was a fresh 48 B heap object,
// the same run cost 134 B and 144 B. The budget of 115 B sits between: 19 B
// above the caller-owned replies' worst, 19 B below the cheapest run that
// allocated them.
func TestFreshSubmitAllocBudget(t *testing.T) {
	const fresh, bytesBudget = 100_000, 115
	for _, backend := range Backends {
		f, _ := newTestFleet(t, Config{Backend: backend, Nodes: []string{"n1", "n2", "n3"}, Shards: 1})
		client := uint64(0)
		var reply wire.Reply
		submit := func() {
			client++
			mustOK(t, f.SubmitTo(&wire.Request{Client: client, Req: 1, Tenant: client % 64, Op: wire.OpAdd, Arg: 3}, "", &reply))
		}
		for i := 0; i < 4096; i++ {
			submit()
		}
		got := testing.AllocsPerRun(2000, submit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < fresh; i++ {
			submit()
		}
		runtime.ReadMemStats(&after)
		perReq := float64(after.TotalAlloc-before.TotalAlloc) / fresh
		t.Logf("%s: %v allocs and %.0f B per fresh request", backend, got, perReq)
		if got != 0 {
			t.Errorf("%s: fresh request allocs/request = %v, want 0", backend, got)
		}
		if perReq > bytesBudget {
			t.Errorf("%s: fresh request bytes/request = %.0f, budget %d", backend, perReq, bytesBudget)
		}
		if err := f.Verify(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEveryStatusAnswersIntoTheCallersReply: the outcomes that are not a
// fresh execution — a node that does not lead the shard, a shard mid-promotion,
// an op the table lacks, a retry answered from the dedup table — each write
// their status into the caller's kept Reply, point Outcome.Reply at it, and
// allocate nothing.
func TestEveryStatusAnswersIntoTheCallersReply(t *testing.T) {
	f, _ := newTestFleet(t, Config{Nodes: []string{"n1", "n2", "n3", "n4"}, Shards: 2})
	mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 7}))
	mustOK(t, f.Submit(&wire.Request{Client: 2, Req: 1, Tenant: 1, Op: wire.OpSet, Arg: 9}))
	// Tenant 1's primary dies and nothing advances the clock, so its
	// promoted backup stays mid-replay for the whole test.
	if _, err := f.Kill(f.Shard(1).Primary); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		req    wire.Request
		to     string
		status uint8
		value  int64
	}{
		{"not owner", wire.Request{Client: 3, Req: 1, Tenant: 0, Op: wire.OpGet}, f.Shard(0).Backup, wire.StatusNotOwner, 0},
		{"unavailable", wire.Request{Client: 3, Req: 1, Tenant: 1, Op: wire.OpGet}, "", wire.StatusUnavailable, 0},
		{"stale request", wire.Request{Client: 3, Req: 1, Tenant: 0, Op: 0xFF}, "", wire.StatusStaleReq, 0},
		{"dup hit", wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 7}, "", wire.StatusOK, 7},
	} {
		reply := wire.Reply{Status: 0xEE, Value: -1}
		var out Outcome
		allocs := testing.AllocsPerRun(100, func() { out = f.SubmitTo(&tc.req, tc.to, &reply) })
		if out.Reply != &reply || reply.Client != tc.req.Client || reply.Req != tc.req.Req ||
			reply.Status != tc.status || reply.Value != tc.value {
			t.Errorf("%s: outcome reply %p holds %+v, want the caller's %p with status %s, value %d",
				tc.name, out.Reply, reply, &reply, wire.StatusName(tc.status), tc.value)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per request, want 0", tc.name, allocs)
		}
	}
	if c := f.Counters(); c.Executed != 2 || c.DupHits != 101 {
		t.Errorf("executed %d, dup hits %d; want 2 and 101 (AllocsPerRun's warm-up run included)", c.Executed, c.DupHits)
	}
}

// TestRetransmitShipsTheSameBytes: the pending record is the log's last, so a
// retransmission after a lost ack is cut from the same log bytes under the
// same sequence and epoch — the frame on the wire is byte-identical to the
// first transmission, and the backup, which already holds the record,
// re-acks it without logging it again.
func TestRetransmitShipsTheSameBytes(t *testing.T) {
	f, _ := newTestFleet(t, Config{Shards: 1, Fault: FaultAckDrop, FaultEvery: 2})
	mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 40})) // attempt 1: clean
	req := &wire.Request{Client: 2, Req: 1, Tenant: 0, Op: wire.OpAdd, Arg: 2}
	if out := f.Submit(req); out.Reply != nil { // attempt 2: the ack is dropped
		t.Fatalf("ack-drop delivered a reply: %+v", out.Reply)
	}
	first := append([]byte(nil), f.frame...)
	pri := f.shardPrimaries()[0]
	ln := pri.links[0]
	last := pri.log.appendFrom(nil, ln.off) // the link stopped short of the last record
	if !pri.pending || pri.pendingClient != 2 || ln.recs != pri.logged-1 || len(last) == 0 || !bytes.HasSuffix(first, last) {
		t.Fatalf("pending %v (client %d), link at %d of %d records; first transmission %x does not carry the log's last record %x",
			pri.pending, pri.pendingClient, ln.recs, pri.logged, first, last)
	}
	if r := mustOK(t, f.Submit(req)); r.Value != 42 { // attempt 3: retransmission, acked
		t.Fatalf("retry = %d, want 42", r.Value)
	}
	if !bytes.Equal(f.frame, first) {
		t.Fatalf("retransmission shipped %x, first transmission %x", f.frame, first)
	}
	bak := pri.links[0].rep
	if c := f.Counters(); c.Executed != 2 || c.Resent != 1 || c.AcksDropped != 1 || bak.logged != 2 {
		t.Fatalf("counters %+v, backup holds %d records; want 2 executed, 1 resent, 1 ack dropped, 2 held", c, bak.logged)
	}
	if err := f.Verify([]Observation{{1, 1, 40}, {2, 1, 42}}); err != nil {
		t.Fatal(err)
	}
}

// TestHostileRequests throws requests no well-behaved client sends at a live
// shard — and at nodes that are unknown, dead or mid-promotion: each is met
// with a status or with silence, never a panic, and the fleet still verifies.
func TestHostileRequests(t *testing.T) {
	f, clk := newTestFleet(t, Config{Nodes: []string{"n1", "n2", "n3", "n4"}, Shards: 4})
	clk.Attach()
	defer clk.Detach()
	mustOK(t, f.Submit(&wire.Request{Client: 9, Req: 5, Tenant: 0, Op: wire.OpSet, Arg: 7}))
	var reply wire.Reply // one kept reply answers every row
	const silence = 0xFF
	for _, tc := range []struct {
		name string
		req  wire.Request
		to   string
		want uint8
	}{
		{"op just past the table", wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpKinds()}, "", wire.StatusStaleReq},
		{"op 255", wire.Request{Client: 1, Req: 1, Tenant: 0, Op: 0xFF, Arg: -1 << 63}, "", wire.StatusStaleReq},
		{"request id 0", wire.Request{Client: 2, Req: 0, Tenant: 0, Op: wire.OpAdd, Arg: 1}, "", wire.StatusOK},
		{"request id 0 again is a retry", wire.Request{Client: 2, Req: 0, Tenant: 0, Op: wire.OpAdd, Arg: 1}, "", wire.StatusOK},
		{"a regressed request id", wire.Request{Client: 9, Req: 4, Tenant: 0, Op: wire.OpGet}, "", wire.StatusStaleReq},
		{"client 0", wire.Request{Client: 0, Req: 1, Tenant: 1, Op: wire.OpAdd, Arg: 1}, "", wire.StatusOK},
		{"client ^0", wire.Request{Client: ^uint64(0), Req: ^uint64(0), Tenant: 1, Op: wire.OpAdd, Arg: 1}, "", wire.StatusOK},
		{"tenant ^0", wire.Request{Client: 3, Req: 1, Tenant: ^uint64(0), Op: wire.OpSet, Arg: 1<<63 - 1}, "", wire.StatusOK},
		{"an unknown node", wire.Request{Client: 4, Req: 1, Tenant: 0, Op: wire.OpGet}, "n99", silence},
		{"a node that does not lead the shard", wire.Request{Client: 4, Req: 1, Tenant: 0, Op: wire.OpGet}, f.Shard(0).Backup, wire.StatusNotOwner},
	} {
		out := f.SubmitTo(&tc.req, tc.to, &reply)
		switch {
		case tc.want == silence && out.Reply != nil:
			t.Errorf("%s: replied %+v, want silence", tc.name, out.Reply)
		case tc.want != silence && (out.Reply == nil || out.Reply.Status != tc.want):
			t.Errorf("%s: %+v, want status %s", tc.name, out.Reply, wire.StatusName(tc.want))
		}
	}
	if c := f.Counters(); c.Executed != 5 || c.DupHits != 1 {
		t.Errorf("executed %d, dup hits %d; want 5 and 1 (request id 0 ran once)", c.Executed, c.DupHits)
	}

	// Kill tenant 0's primary: the dead node is silent, the promoted one
	// refuses service while it replays, then serves the replayed state.
	dead := f.Shard(0).Primary
	if _, err := f.Kill(dead); err != nil {
		t.Fatal(err)
	}
	hostile := &wire.Request{Client: 5, Req: 1, Tenant: 0, Op: 0xFE}
	if out := f.SubmitTo(hostile, dead, &reply); out.Reply != nil {
		t.Errorf("dead node replied %+v", out.Reply)
	}
	if out := f.Submit(hostile); out.Reply == nil || out.Reply.Status != wire.StatusUnavailable {
		t.Errorf("mid-promotion: %+v, want Unavailable", out.Reply)
	}
	if _, err := f.Kill("n99"); err == nil {
		t.Error("killing an unknown node reported no error")
	}
	clk.Sleep(time.Second)
	if out := f.Submit(hostile); out.Reply == nil || out.Reply.Status != wire.StatusStaleReq {
		t.Errorf("bad op after promotion: %+v, want StaleReq", out.Reply)
	}
	if r := mustOK(t, f.Submit(&wire.Request{Client: 9, Req: 6, Tenant: 0, Op: wire.OpGet})); r.Value != 8 {
		t.Errorf("tenant 0 after the table and a failover = %d, want 7+1", r.Value)
	}
	if err := f.Verify([]Observation{{9, 5, 7}, {2, 0, 8}, {9, 6, 8}}); err != nil {
		t.Fatal(err)
	}
}

// TestHostileFramesMetWithSilence: frames are the other input a replica
// parses (TestDeliverAdmission is the verdict table). Here they strike a live
// shard's backup between two operations, under either backend: each is met
// with silence, nothing reaches the log, and the shard goes on committing
// through the very peer that was attacked.
func TestHostileFramesMetWithSilence(t *testing.T) {
	for _, backend := range Backends {
		f, _ := newTestFleet(t, Config{Backend: backend, Shards: 1})
		mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 5}))
		pri := f.shardPrimaries()[0]
		bak := pri.links[0].rep
		op := wire.AppendClientOp(nil, &wire.ClientOp{Client: 9, Req: 9, Tenant: 0, Op: wire.OpSet, Arg: -1, Result: -1})
		var foreign wire.Buffer
		if err := foreign.Append(&wire.Heartbeat{Seq: 1}); err != nil {
			t.Fatal(err)
		}
		held := bak.log.appendFrom(nil, 0)
		frame := func(first, epoch uint64, payload []byte) []byte {
			return wire.AppendFrame(nil, &wire.Frame{Seq: first, Epoch: epoch, AckWanted: true, Payload: payload})
		}
		for name, msg := range map[string][]byte{
			"a cut envelope":            frame(1, pri.epoch, op)[:4],
			"a cut record":              frame(1, pri.epoch, op[:3]),
			"a foreign record":          frame(1, pri.epoch, foreign.Bytes()),
			"a record past the log end": frame(2, pri.epoch, op),
			"another epoch's record":    frame(1, pri.epoch+1, op),
		} {
			if ack, logged := bak.deliver(f, msg); ack != nil || logged || !bytes.Equal(bak.log.appendFrom(nil, 0), held) {
				t.Fatalf("%s, %s: ack %x, logged %v, log %x (was %x)", backend, name, ack, logged, bak.log.appendFrom(nil, 0), held)
			}
		}
		if c := f.Counters(); c.StaleFrames != 1 {
			t.Fatalf("%s: %d stale frames counted, want the one from another epoch", backend, c.StaleFrames)
		}
		if r := mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 2, Tenant: 0, Op: wire.OpAdd, Arg: 2})); r.Value != 7 {
			t.Fatalf("%s: add after the hostile frames = %d, want 7", backend, r.Value)
		}
		if bak.logged != 2 || pri.links[0].recs != 2 {
			t.Fatalf("%s: backup holds %d records, link says %d; want 2 and 2", backend, bak.logged, pri.links[0].recs)
		}
		if err := f.Verify([]Observation{{1, 1, 5}, {1, 2, 7}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyRejectsAPeerLogThatIsNotAPrefix: the prefix clause of Verify holds
// for the pair's backup as it does for quorum peers — a backup whose log was
// mangled behind the protocol's back fails the fleet, even though the
// primary's own log and every observation still check out.
func TestVerifyRejectsAPeerLogThatIsNotAPrefix(t *testing.T) {
	for _, backend := range Backends {
		f, _ := newTestFleet(t, Config{Backend: backend, Shards: 1})
		mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 5}))
		obs := []Observation{{1, 1, 5}}
		if err := f.Verify(obs); err != nil {
			t.Fatal(err)
		}
		bak := f.shardPrimaries()[0].links[0].rep
		tail := bak.log.chunks[len(bak.log.chunks)-1]
		tail[len(tail)-1] ^= 0x40
		if err := f.Verify(obs); err == nil || !strings.Contains(err.Error(), "not a prefix") {
			t.Fatalf("%s: Verify over a mangled backup log = %v, want the prefix clause to fail", backend, err)
		}
		tail[len(tail)-1] ^= 0x40
		bak.log.appendRecords(bak.log.appendFrom(nil, 0)) // longer than the primary's
		if err := f.Verify(obs); err == nil {
			t.Fatalf("%s: Verify passed a backup holding more than its primary", backend)
		}
	}
}

// TestAuditRejectsEveryClause: each clause of the audit fails on its own. A
// two-shard fleet serves one op per shard, then each row mangles it behind
// the protocol's back — a record appended straight onto a primary's log, live
// state edited, an observation no client could have made — and Verify and
// Audit must both refuse it with that clause's message. (The prefix clause has
// its own test above, under both backends.)
func TestAuditRejectsEveryClause(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mangle     func(pri []*replica, obs *[]Observation)
	}{
		{"a record on the wrong shard", "holds tenant 1 of shard 1", func(pri []*replica, _ *[]Observation) {
			pri[0].appendLog(&wire.ClientOp{Client: 3, Req: 1, Tenant: 1, Op: wire.OpSet, Arg: 1, Result: 1})
		}},
		{"a (client, req) logged on two shards", "(client 1, req 1) executed twice", func(pri []*replica, _ *[]Observation) {
			pri[1].appendLog(&wire.ClientOp{Client: 1, Req: 1, Tenant: 3, Op: wire.OpSet, Arg: 2, Result: 2})
		}},
		{"a logged result the model does not reproduce", "model result 6, logged 7", func(pri []*replica, _ *[]Observation) {
			pri[0].appendLog(&wire.ClientOp{Client: 3, Req: 1, Tenant: 0, Op: wire.OpAdd, Arg: 1, Result: 7})
		}},
		{"a live value the replay does not reproduce", "tenant 0 live 6 != replayed 5", func(pri []*replica, _ *[]Observation) {
			pri[0].state[0]++
		}},
		{"a live tenant the log never wrote", "live state has 2 tenants, log replay 1", func(pri []*replica, _ *[]Observation) {
			pri[0].state[2] = 0
		}},
		{"an observation that was never logged", "client 9 observed OK for req 1 never present", func(_ []*replica, obs *[]Observation) {
			*obs = append(*obs, Observation{9, 1, 0})
		}},
		{"an observed value the log does not hold", "client 1 req 1 observed 6, log says 5", func(_ []*replica, obs *[]Observation) {
			(*obs)[0].Value = 6
		}},
	} {
		f, _ := newTestFleet(t, Config{Shards: 2})
		mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 5}))
		mustOK(t, f.Submit(&wire.Request{Client: 2, Req: 1, Tenant: 1, Op: wire.OpSet, Arg: 7}))
		obs := []Observation{{1, 1, 5}, {2, 1, 7}}
		if err := f.Verify(obs); err != nil {
			t.Fatalf("%s: before the mangling: %v", tc.name, err)
		}
		tc.mangle(f.shardPrimaries(), &obs)
		if err := f.Verify(obs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := f.Audit(obs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Audit = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLaggingSurvivorKeepsThePending: a reseat counts a head-of-line record
// committed only if the new configuration holds it. Here every frame is lost,
// then the backup dies on a three-node quorum fleet: the witness converts to
// backup in place, it never saw the record, and no fresh recruit exists — so
// the record stays pending until the retry ships it.
func TestLaggingSurvivorKeepsThePending(t *testing.T) {
	f, _ := quorumFleet(t, Config{Shards: 1, Nodes: []string{"n1", "n2", "n3"}, Fault: FaultFrameDrop, FaultEvery: 1})
	req := &wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 9}
	if out := f.Submit(req); out.Reply != nil {
		t.Fatalf("replied %+v with every frame dropped", out.Reply)
	}
	if _, err := f.Kill(f.Shard(0).Backup); err != nil {
		t.Fatal(err)
	}
	pri := f.shardPrimaries()[0]
	if !pri.pending || len(pri.links) != 1 || pri.links[0].rep.logged != 0 {
		t.Fatalf("pending %v over %d links: a record no peer holds was called committed", pri.pending, len(pri.links))
	}
	f.cfg.Fault = FaultNone
	if r := mustOK(t, f.Submit(req)); r.Value != 9 || pri.links[0].rep.logged != 1 {
		t.Fatalf("retry = %d with %d records at the converted backup", r.Value, pri.links[0].rep.logged)
	}
	if c := f.Counters(); c.Executed != 1 || c.Resent != 1 {
		t.Fatalf("counters %+v, want 1 executed and 1 resent", c)
	}
	if err := f.Verify([]Observation{{1, 1, 9}}); err != nil {
		t.Fatal(err)
	}
}
