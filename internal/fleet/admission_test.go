package fleet

import (
	"testing"

	"repro/internal/wire"
)

// TestDeliverFrameAdmission runs a shard backup's receive path through every
// verdict of the shared admission function (wire.SeqGate.AdmitFrame — the
// policy the VM pair's backup runs too; its own table is
// replication.TestBackupAdmissionTable): what is logged, what is acknowledged
// and with which sequence, and what is met with silence.
func TestDeliverFrameAdmission(t *testing.T) {
	const epoch = 3
	var buf wire.Buffer
	if err := buf.Append(&wire.ClientOp{Client: 1, Req: 1, Tenant: 7, Op: wire.OpAdd, Arg: 2, Result: 2}); err != nil {
		t.Fatal(err)
	}
	frame := func(seq, ep uint64, ack bool) []byte {
		return wire.EncodeFrame(&wire.Frame{Seq: seq, Epoch: ep, AckWanted: ack, Payload: buf.Bytes()})
	}
	cases := []struct {
		name    string
		msg     []byte
		ackSeq  uint64 // 0: silence
		logged  bool
		stale   uint64
		records int // held afterwards
	}{
		{"fresh, ack wanted", frame(1, epoch, true), 1, true, 0, 1},
		{"fresh, no ack wanted", frame(2, epoch, false), 0, true, 0, 2},
		{"duplicate is re-acked with the high-water mark, not re-logged", frame(1, epoch, true), 2, false, 0, 2},
		{"duplicate, no ack wanted", frame(2, epoch, false), 0, false, 0, 2},
		{"gap is met with silence", frame(4, epoch, true), 0, false, 0, 2},
		{"stale epoch is never acked", frame(3, epoch-1, true), 0, false, 1, 2},
		{"future epoch is never acked", frame(3, epoch+1, true), 0, false, 2, 2},
		{"corrupt envelope", []byte{0x03}, 0, false, 2, 2},
		{"the next frame is still admitted", frame(3, epoch, true), 3, true, 2, 3},
	}
	f := &Fleet{}
	rep := newReplica(0, epoch, roleBackup)
	for _, tc := range cases {
		ack, logged := rep.deliverFrame(f, tc.msg)
		if logged != tc.logged || rep.logged != tc.records || f.counters.StaleFrames != tc.stale {
			t.Errorf("%s: logged %v, %d records held, %d stale frames; want %v, %d, %d",
				tc.name, logged, rep.logged, f.counters.StaleFrames, tc.logged, tc.records, tc.stale)
		}
		if tc.ackSeq == 0 {
			if ack != nil {
				t.Errorf("%s: acknowledged with %x, want silence", tc.name, ack)
			}
			continue
		}
		if ep, seq, err := wire.DecodeAck(ack); err != nil || ep != epoch || seq != tc.ackSeq {
			t.Errorf("%s: ack %x = (epoch %d, seq %d, %v), want (%d, %d)", tc.name, ack, ep, seq, err, epoch, tc.ackSeq)
		}
	}
}
