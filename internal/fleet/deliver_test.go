package fleet

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// TestDeliverAdmission runs the one receive path every peer has — the pair's
// backup as much as a quorum witness — through every verdict it can return:
// what is appended, what is acknowledged and with which high-water mark, and
// what is met with silence. The rows run in order against one replica.
func TestDeliverAdmission(t *testing.T) {
	const epoch = 3
	var ops [5][]byte // ops[i] is log record i
	var log []byte
	for i := range ops {
		ops[i] = wire.AppendClientOp(nil, &wire.ClientOp{Client: 1, Req: uint64(i + 1), Tenant: 7, Op: wire.OpAdd, Arg: 2, Result: int64(2 * (i + 1))})
		log = append(log, ops[i]...)
	}
	upTo := func(n int) int { return len(bytes.Join(ops[:n], nil)) }
	var foreign wire.Buffer
	if err := foreign.Append(&wire.Heartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	frame := func(first, ep uint64, ack bool, payload ...[]byte) []byte {
		return wire.AppendFrame(nil, &wire.Frame{Seq: first, Epoch: ep, AckWanted: ack, Payload: bytes.Join(payload, nil)})
	}
	cases := []struct {
		name   string
		msg    []byte
		held   uint64 // the ack's high-water mark; 0: silence
		logged bool
		stale  uint64
		holds  int // records held afterwards
	}{
		{"fresh, ack wanted", frame(0, epoch, true, ops[0]), 1, true, 0, 1},
		{"fresh, no ack wanted", frame(1, epoch, false, ops[1]), 0, true, 0, 2},
		{"duplicate is re-acked with the high-water mark, not re-logged", frame(0, epoch, true, ops[0]), 2, false, 0, 2},
		{"duplicate, no ack wanted", frame(1, epoch, false, ops[1]), 0, false, 0, 2},
		{"gap is met with silence", frame(3, epoch, true, ops[3]), 0, false, 0, 2},
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
	f := &Fleet{}
	rep := newReplica(0, epoch, roleBackup)
	for _, tc := range cases {
		ack, logged := rep.deliver(f, tc.msg)
		if logged != tc.logged || rep.logged != tc.holds || f.counters.StaleFrames != tc.stale {
			t.Errorf("%s: logged %v, %d records held, %d stale frames; want %v, %d, %d",
				tc.name, logged, rep.logged, f.counters.StaleFrames, tc.logged, tc.holds, tc.stale)
		}
		if !bytes.Equal(rep.log, log[:upTo(tc.holds)]) {
			t.Errorf("%s: log %x is not the first %d records %x", tc.name, rep.log, tc.holds, log[:upTo(tc.holds)])
		}
		if tc.held == 0 {
			if ack != nil {
				t.Errorf("%s: acknowledged with %x, want silence", tc.name, ack)
			}
			continue
		}
		if ep, held, err := wire.DecodeAck(ack); err != nil || ep != epoch || held != tc.held {
			t.Errorf("%s: ack %x = (epoch %d, held %d, %v), want (%d, %d)", tc.name, ack, ep, held, err, epoch, tc.held)
		}
	}
}
