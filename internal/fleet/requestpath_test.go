package fleet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFreshSubmitAllocBudget: a steady-state fresh request costs four heap
// allocations end to end — the Reply handed to the caller, the client's
// dedupEntry, the Frame the backup's admission decodes and the ack bytes. The
// op is encoded once, onto the log; the frame is cut from the log into the
// fleet's scratch buffer. (Log, offset-table and map growth are amortised
// below one allocation per request.) Quorum ships to two peers: one more Frame
// and one more ack.
func TestFreshSubmitAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		backend string
		budget  float64
	}{{BackendPair, 4}, {BackendQuorum, 6}} {
		f, _ := newTestFleet(t, Config{Backend: tc.backend, Nodes: []string{"n1", "n2", "n3"}, Shards: 1})
		client := uint64(0)
		submit := func() {
			client++
			mustOK(t, f.Submit(&wire.Request{Client: client, Req: 1, Tenant: client % 64, Op: wire.OpAdd, Arg: 3}))
		}
		for i := 0; i < 4096; i++ {
			submit()
		}
		got := testing.AllocsPerRun(2000, submit)
		t.Logf("%s: %v allocs per fresh Submit", tc.backend, got)
		if got > tc.budget {
			t.Errorf("%s: fresh Submit allocs/request = %v, budget %v", tc.backend, got, tc.budget)
		}
		if err := f.Verify(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetransmitShipsTheSameBytes: the pending record is the log's last, so a
// retransmission after a lost ack is cut from the same log bytes under the
// same sequence and epoch — the frame on the wire is byte-identical to the
// first transmission, which is what lets the backup's gate call it a
// Duplicate.
func TestRetransmitShipsTheSameBytes(t *testing.T) {
	f, _ := newTestFleet(t, Config{Shards: 1, Fault: FaultAckDrop, FaultEvery: 2})
	mustOK(t, f.Submit(&wire.Request{Client: 1, Req: 1, Tenant: 0, Op: wire.OpSet, Arg: 40})) // attempt 1: clean
	req := &wire.Request{Client: 2, Req: 1, Tenant: 0, Op: wire.OpAdd, Arg: 2}
	if out := f.Submit(req); out.Reply != nil { // attempt 2: the ack is dropped
		t.Fatalf("ack-drop delivered a reply: %+v", out.Reply)
	}
	first := append([]byte(nil), f.frame...)
	pri := f.shardPrimaries()[0]
	if pri.pending == nil || !bytes.HasSuffix(first, pri.suffixFrom(pri.logged-1)) {
		t.Fatalf("pending %v; first transmission %x does not carry the log's last record", pri.pending, first)
	}
	if r := mustOK(t, f.Submit(req)); r.Value != 42 { // attempt 3: retransmission, acked
		t.Fatalf("retry = %d, want 42", r.Value)
	}
	if !bytes.Equal(f.frame, first) {
		t.Fatalf("retransmission shipped %x, first transmission %x", f.frame, first)
	}
	if c := f.Counters(); c.Executed != 2 || c.Resent != 1 || c.AcksDropped != 1 || pri.peer.logged != 2 {
		t.Fatalf("counters %+v, backup holds %d records; want 2 executed, 1 resent, 1 ack dropped, 2 held", c, pri.peer.logged)
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
		out := f.SubmitTo(&tc.req, tc.to)
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
	if out := f.SubmitTo(hostile, dead); out.Reply != nil {
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
// parses. A sound envelope around a payload that does not walk as records is
// Corrupt like a mangled envelope — nothing logged, nothing acked, and the gate
// not advanced, so the honest retransmission of that sequence is still Fresh.
// A quorum peer is as deaf to a payload of the wrong record type, and appends
// exactly the byte tail past its high-water mark of an overlapping one.
func TestHostileFramesMetWithSilence(t *testing.T) {
	const epoch = 3
	frame := func(seq uint64, payload []byte) []byte {
		return wire.AppendFrame(nil, &wire.Frame{Seq: seq, Epoch: epoch, AckWanted: true, Payload: payload})
	}
	op := func(req uint64) []byte {
		return wire.AppendClientOp(nil, &wire.ClientOp{Client: 1, Req: req, Tenant: 7, Op: wire.OpAdd, Arg: 1, Result: int64(req)})
	}
	var foreign wire.Buffer
	if err := foreign.Append(&wire.Heartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	cut := op(1)[:3]

	f := &Fleet{}
	bak := newReplica(0, epoch, roleBackup)
	if ack, logged := bak.deliverFrame(f, frame(1, cut)); ack != nil || logged || bak.logged != 0 || len(bak.log) != 0 {
		t.Fatalf("truncated payload: ack %x, logged %v, %d records held", ack, logged, bak.logged)
	}
	ack, logged := bak.deliverFrame(f, frame(1, op(1)))
	if _, seq, err := wire.DecodeAck(ack); err != nil || seq != 1 || !logged || bak.logged != 1 {
		t.Fatalf("retransmission after a corrupt payload: ack %x (%v), logged %v; want it Fresh and acked", ack, err, logged)
	}

	peer := newReplica(0, epoch, roleWitness)
	for _, bad := range [][]byte{cut, foreign.Bytes(), append(op(1), foreign.Bytes()...)} {
		if ack, logged := peer.deliverQuorumFrame(f, frame(0, bad)); ack != nil || logged || peer.logged != 0 {
			t.Fatalf("quorum payload %x: ack %x, logged %v, %d records held", bad, ack, logged, peer.logged)
		}
	}
	three := append(append(op(1), op(2)...), op(3)...)
	peer.deliverQuorumFrame(f, frame(0, three[:len(op(1))+len(op(2))]))
	ack, logged = peer.deliverQuorumFrame(f, frame(1, three[len(op(1)):])) // overlaps record 1, brings record 2
	if _, held, err := wire.DecodeAck(ack); err != nil || held != 3 || !logged || !bytes.Equal(peer.log, three) {
		t.Fatalf("overlapping catch-up: ack %x (%v), logged %v, log %x, want %x", ack, err, logged, peer.log, three)
	}
	if ack, logged = peer.deliverQuorumFrame(f, frame(0, three)); logged || !bytes.Equal(peer.log, three) {
		t.Fatalf("a frame of records already held re-logged: log %x", peer.log)
	} else if _, held, _ := wire.DecodeAck(ack); held != 3 {
		t.Fatalf("re-ack carries %d records held, want 3", held)
	}
}
