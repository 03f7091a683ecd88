package fleet

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

const deliverEpoch = 3

// deliverOps returns five encoded ClientOp records, ops[i] being log record i.
func deliverOps() (ops [5][]byte) {
	for i := range ops {
		ops[i] = wire.AppendClientOp(nil, &wire.ClientOp{Client: 1, Req: uint64(i + 1), Tenant: 7, Op: wire.OpAdd, Arg: 2, Result: int64(2 * (i + 1))})
	}
	return ops
}

type deliverCase struct {
	name   string
	msg    []byte
	held   uint64 // the ack's high-water mark; 0: silence
	logged bool
	stale  uint64
	holds  int // records held afterwards
}

// deliverCases is TestDeliverAdmission's table, in the order its rows run
// against one replica; FuzzDeliver seeds from it.
func deliverCases(t testing.TB) []deliverCase {
	const epoch = deliverEpoch
	ops := deliverOps()
	var foreign wire.Buffer
	if err := foreign.Append(&wire.Heartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	frame := func(first, ep uint64, ack bool, payload ...[]byte) []byte {
		return wire.AppendFrame(nil, &wire.Frame{Seq: first, Epoch: ep, AckWanted: ack, Payload: bytes.Join(payload, nil)})
	}
	return []deliverCase{
		{"fresh, ack wanted", frame(0, epoch, true, ops[0]), 1, true, 0, 1},
		{"fresh, no ack wanted", frame(1, epoch, false, ops[1]), 0, true, 0, 2},
		{"duplicate is re-acked with the high-water mark, not re-logged", frame(0, epoch, true, ops[0]), 2, false, 0, 2},
		{"duplicate, no ack wanted", frame(1, epoch, false, ops[1]), 0, false, 0, 2},
		{"gap is met with silence", frame(3, epoch, true, ops[3]), 0, false, 0, 2},
		{"a Seq of 2^63 or more is a gap, not a rewind", frame(1<<64-2, epoch, true, ops[:]...), 0, false, 0, 2},
		{"stale epoch is never acked", frame(2, epoch-1, true, ops[2]), 0, false, 1, 2},
		{"future epoch is never acked", frame(2, epoch+1, true, ops[2]), 0, false, 2, 2},
		{"corrupt envelope", []byte{0x03}, 0, false, 2, 2},
		{"corrupt payload in a sound envelope", frame(2, epoch, true, ops[2][:3]), 0, false, 2, 2},
		{"a record that is not a ClientOp", frame(2, epoch, true, foreign.Bytes()), 0, false, 2, 2},
		{"one after a good record, nothing of the frame is kept", frame(2, epoch, true, ops[2], foreign.Bytes()), 0, false, 2, 2},
		{"then the honest retransmission is admitted", frame(2, epoch, true, ops[2]), 3, true, 2, 3},
		{"an overlapping catch-up appends exactly the tail past the mark", frame(1, epoch, true, ops[1], ops[2], ops[3], ops[4]), 5, true, 2, 5},
		{"a frame of records all held is re-acked", frame(0, epoch, true, ops[:]...), 5, false, 2, 5},
	}
}

// TestDeliverAdmission runs the one receive path every peer has — the pair's
// backup as much as a quorum witness — through every verdict it can return:
// what is appended, what is acknowledged and with which high-water mark, and
// what is met with silence. The rows run in order against one replica.
func TestDeliverAdmission(t *testing.T) {
	ops := deliverOps()
	log := bytes.Join(ops[:], nil)
	upTo := func(n int) int { return len(bytes.Join(ops[:n], nil)) }
	f := &Fleet{}
	rep := newReplica(0, deliverEpoch, roleBackup)
	for _, tc := range deliverCases(t) {
		ack, logged := rep.deliver(f, tc.msg)
		if logged != tc.logged || rep.logged != tc.holds || f.counters.StaleFrames != tc.stale {
			t.Errorf("%s: logged %v, %d records held, %d stale frames; want %v, %d, %d",
				tc.name, logged, rep.logged, f.counters.StaleFrames, tc.logged, tc.holds, tc.stale)
		}
		if got := rep.log.appendFrom(nil, 0); !bytes.Equal(got, log[:upTo(tc.holds)]) {
			t.Errorf("%s: log %x is not the first %d records %x", tc.name, got, tc.holds, log[:upTo(tc.holds)])
		}
		if tc.held == 0 {
			if ack != nil {
				t.Errorf("%s: acknowledged with %x, want silence", tc.name, ack)
			}
			continue
		}
		if ep, held, err := wire.DecodeAck(ack); err != nil || ep != deliverEpoch || held != tc.held {
			t.Errorf("%s: ack %x = (epoch %d, held %d, %v), want (%d, %d)", tc.name, ack, ep, held, err, deliverEpoch, tc.held)
		}
	}
}

// FuzzDeliver delivers arbitrary bytes to a peer holding the first k of
// deliverOps' records. Whatever arrives, the peer does not panic; its log is
// unchanged or grew by whole ClientOp records, and walks to exactly the
// records it claims to hold; an ack carries its epoch and that count; and a
// frame starting past what it holds appends nothing.
func FuzzDeliver(f *testing.F) {
	held := 0
	for _, tc := range deliverCases(f) {
		f.Add(uint8(held), tc.msg)
		held = tc.holds
	}
	ops := deliverOps()
	f.Fuzz(func(t *testing.T, k uint8, msg []byte) {
		held := int(k) % (len(ops) + 1)
		rep := newReplica(0, deliverEpoch, roleBackup)
		for _, op := range ops[:held] {
			rep.log.appendRecords(op)
		}
		rep.logged = held
		before := rep.log.appendFrom(nil, 0)
		ack, logged := rep.deliver(&Fleet{}, msg)
		after := rep.log.appendFrom(nil, 0)
		if logged == bytes.Equal(after, before) || logged != (rep.logged > held) || !bytes.HasPrefix(after, before) {
			t.Fatalf("logged %v, %d -> %d records, log %x -> %x", logged, held, rep.logged, before, after)
		}
		n := 0
		if err := rep.log.replay(func(int, *wire.ClientOp) error { n++; return nil }); err != nil || n != rep.logged {
			t.Fatalf("log walks %d records (%v), replica claims %d", n, err, rep.logged)
		}
		if ack != nil {
			if ep, acked, err := wire.DecodeAck(ack); err != nil || ep != deliverEpoch || acked != uint64(rep.logged) {
				t.Fatalf("ack (epoch %d, held %d, %v), replica at epoch %d holds %d", ep, acked, err, deliverEpoch, rep.logged)
			}
		}
		if fr, err := wire.DecodeFrame(msg); err == nil && fr.Seq > uint64(held) && logged {
			t.Fatalf("a frame at Seq %d was appended to a log of %d records", fr.Seq, held)
		}
	})
}

// TestShardLogChunks: a log spanning several chunks cuts every suffix, walks
// every record, clones into bytes of its own, and compares as a prefix by its
// logical bytes, however the other log's chunks break.
func TestShardLogChunks(t *testing.T) {
	var l shardLog
	var flat []byte
	var offs []int
	for i := 0; len(l.chunks) < 3; i++ {
		offs = append(offs, l.size)
		op := wire.ClientOp{Client: uint64(i) << 40, Req: 1, Tenant: uint64(i), Op: wire.OpSet, Arg: int64(i), Result: int64(i)}
		l.appendOp(&op)
		flat = wire.AppendClientOp(flat, &op)
	}
	for i, c := range l.chunks {
		if cap(c) != chunkCap || i < len(l.chunks)-1 && chunkCap-len(c) >= maxOpLen {
			t.Fatalf("chunk %d: %d bytes, capacity %d; want capacity %d, filled to within one record", i, len(c), cap(c), chunkCap)
		}
	}
	// A peer appending the same bytes in runs of every length chunks them
	// exactly as the primary did.
	var peer shardLog
	for k, i := 1, 0; i < len(offs); k = k%7 + 1 {
		j := min(i+k, len(offs))
		end := l.size
		if j < len(offs) {
			end = offs[j]
		}
		peer.appendRecords(flat[offs[i]:end])
		i = j
	}
	if len(peer.chunks) != len(l.chunks) || peer.size != l.size {
		t.Fatalf("a peer's log has %d chunks of %d bytes, the primary's %d of %d", len(peer.chunks), peer.size, len(l.chunks), l.size)
	}
	for i := range l.chunks {
		if !bytes.Equal(peer.chunks[i], l.chunks[i]) {
			t.Fatalf("chunk %d breaks differently on the peer", i)
		}
	}
	var scratch []byte
	for _, off := range append(offs, l.size) {
		if got := l.appendFrom([]byte{0xAA}, off); !bytes.Equal(got[1:], flat[off:]) || got[0] != 0xAA {
			t.Fatalf("bytes from %d: %d, want %d", off, len(got)-1, len(flat)-off)
		}
		if got := l.suffix(off, &scratch); !bytes.Equal(got, flat[off:]) {
			t.Fatalf("suffix from byte %d: %d bytes, want %d", off, len(got), len(flat)-off)
		}
	}
	n := 0
	if err := l.replay(func(i int, op *wire.ClientOp) error {
		if i != n || op.Tenant != uint64(i) {
			t.Fatalf("record %d visited as %d: %+v", i, n, op)
		}
		n++
		return nil
	}); err != nil || n != len(offs) {
		t.Fatalf("walked %d of %d records: %v", n, len(offs), err)
	}
	c := l.clone()
	if !bytes.Equal(c.appendFrom(nil, 0), flat) || !c.prefixOf(&l) || !l.prefixOf(&c) {
		t.Fatal("a clone differs from its source")
	}
	c.chunks[0][0] ^= 1
	if l.chunks[0][0] != flat[0] || c.prefixOf(&l) {
		t.Fatal("a clone shares bytes with its source, or a flipped byte still compares as a prefix")
	}
	// The same bytes broken at other places, and cut short.
	odd := shardLog{size: len(flat) - 1}
	for b := flat[:len(flat)-1]; len(b) > 0; {
		k := min(len(b), 1000)
		odd.chunks, b = append(odd.chunks, b[:k]), b[k:]
	}
	if !odd.prefixOf(&l) || l.prefixOf(&odd) {
		t.Fatal("prefixOf depends on where the chunks break")
	}
}
