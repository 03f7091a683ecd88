package wire

import (
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		&IDMap{LID: 42, TID: "0.1", TASN: 7},
		&LockAcq{TID: "0.1", TASN: 7, LID: 42, LASN: 99},
		&Switch{TID: "0", BrCnt: 123456, MethodIdx: 3, PCOff: 17, MonCnt: 9, LASN: 2, Reason: 1, NextTID: "0.2"},
		&NativeResult{
			TID: "0.2", NatSeq: 5, Sig: "sys.clock",
			Results: []WireValue{
				{Kind: WireInt, I: -77},
				{Kind: WireFloat, F: 3.25},
				{Kind: WireStr, S: "hello"},
				{Kind: WireNull},
			},
			HandlerData: []byte{1, 2, 3},
		},
		&OutputIntent{TID: "0", NatSeq: 1, Sig: "io.print", OutSeq: 12, HandlerData: nil},
		&ClientOp{Client: 1_000_003, Req: 4, Tenant: 999, Op: OpAdd, Arg: -17, Result: 25},
		&Heartbeat{Seq: 8},
		&Halt{},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf Buffer
	records := sampleRecords()
	for _, r := range records {
		if err := buf.Append(r); err != nil {
			t.Fatalf("append %T: %v", r, err)
		}
	}
	if buf.Count() != len(records) {
		t.Fatalf("count = %d", buf.Count())
	}
	decoded, err := DecodeAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(records))
	}
	for i := range records {
		want, got := records[i], decoded[i]
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatalf("record %d: %#v != %#v", i, got, want)
		}
	}
}

// normalize maps empty slices to nil for DeepEqual.
func normalize(r Record) Record {
	if nr, ok := r.(*NativeResult); ok {
		cp := *nr
		if len(cp.HandlerData) == 0 {
			cp.HandlerData = nil
		}
		return &cp
	}
	if oi, ok := r.(*OutputIntent); ok {
		cp := *oi
		if len(cp.HandlerData) == 0 {
			cp.HandlerData = nil
		}
		return &cp
	}
	return r
}

func TestDecodeTruncation(t *testing.T) {
	var buf Buffer
	for _, r := range sampleRecords() {
		_ = buf.Append(r)
	}
	full := buf.Bytes()
	for n := 1; n < len(full); n++ {
		if _, err := DecodeAll(full[:n]); err == nil {
			// Truncation at a record boundary is legal; everywhere else
			// must error. Check it decoded strictly fewer records.
			recs, _ := DecodeAll(full[:n])
			if len(recs) >= len(sampleRecords()) {
				t.Fatalf("truncated decode at %d produced full set", n)
			}
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeAll([]byte{0xFF, 0x01, 0x02}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Seq: 900, Epoch: 7, AckWanted: true, Payload: []byte("records")}
	got, err := DecodeFrame(EncodeFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 900 || got.Epoch != 7 || !got.AckWanted || string(got.Payload) != "records" {
		t.Fatalf("frame = %+v", got)
	}
	if _, err := DecodeFrame([]byte{}); err == nil {
		t.Fatal("empty frame decoded")
	}
	if _, err := DecodeFrame(append(EncodeFrame(f), 0xAA)); err == nil {
		t.Fatal("frame with trailing garbage decoded")
	}
	epoch, seq, err := DecodeAck(AppendAck(nil, 3, 12345))
	if err != nil || epoch != 3 || seq != 12345 {
		t.Fatalf("ack = (%d,%d) (%v)", epoch, seq, err)
	}
}

// TestDecodeAckStrict: an acknowledgement is exactly two varints. A corrupt
// ack with trailing bytes must not be accepted for its prefix — an ack
// satisfies output commit, so leniency here is a correctness hole.
func TestDecodeAckStrict(t *testing.T) {
	if _, _, err := DecodeAck(nil); err == nil {
		t.Fatal("empty ack decoded")
	}
	if _, _, err := DecodeAck([]byte{0x03}); err == nil {
		t.Fatal("ack missing seq decoded")
	}
	if _, _, err := DecodeAck(append(AppendAck(nil, 1, 9), 0x00)); err == nil {
		t.Fatal("ack with trailing byte decoded")
	}
	if _, _, err := DecodeAck([]byte{0x80}); err == nil {
		t.Fatal("unterminated varint decoded")
	}
}

// Property: LockAcq and Switch records round-trip for arbitrary field values.
func TestLockAcqProperty(t *testing.T) {
	prop := func(tid string, tasn uint64, lid int64, lasn uint64) bool {
		var buf Buffer
		in := &LockAcq{TID: tid, TASN: tasn, LID: lid, LASN: lasn}
		if err := buf.Append(in); err != nil {
			return false
		}
		out, err := DecodeAll(buf.Bytes())
		if err != nil || len(out) != 1 {
			return false
		}
		got, ok := out[0].(*LockAcq)
		return ok && *got == *in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchProperty(t *testing.T) {
	prop := func(tid, next string, br uint64, m, pc int32, mon, lasn uint64, reason uint8) bool {
		var buf Buffer
		in := &Switch{TID: tid, BrCnt: br, MethodIdx: m, PCOff: pc, MonCnt: mon, LASN: lasn, Reason: reason, NextTID: next}
		if err := buf.Append(in); err != nil {
			return false
		}
		out, err := DecodeAll(buf.Bytes())
		if err != nil || len(out) != 1 {
			return false
		}
		got, ok := out[0].(*Switch)
		return ok && *got == *in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNativeResultStringProperty(t *testing.T) {
	prop := func(s string, i int64, f float64) bool {
		var buf Buffer
		in := &NativeResult{TID: "0", NatSeq: 1, Sig: "x", Results: []WireValue{
			{Kind: WireStr, S: s}, {Kind: WireInt, I: i}, {Kind: WireFloat, F: f},
		}}
		if err := buf.Append(in); err != nil {
			return false
		}
		out, err := DecodeAll(buf.Bytes())
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0].(*NativeResult)
		if len(got.Results) != 3 {
			return false
		}
		okF := got.Results[2].F == f || (f != f && got.Results[2].F != got.Results[2].F)
		return got.Results[0].S == s && got.Results[1].I == i && okF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferReset(t *testing.T) {
	var buf Buffer
	_ = buf.Append(&Halt{})
	if buf.Len() == 0 || buf.Count() != 1 {
		t.Fatal("append did nothing")
	}
	buf.Reset()
	if buf.Len() != 0 || buf.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSeqGate(t *testing.T) {
	var g SeqGate
	for seq := uint64(1); seq <= 3; seq++ {
		if dup, gap := g.Admit(seq); dup || gap {
			t.Fatalf("seq %d: dup=%v gap=%v, want clean admit", seq, dup, gap)
		}
	}
	if dup, gap := g.Admit(2); !dup || gap {
		t.Fatalf("replayed seq 2: dup=%v gap=%v, want duplicate", dup, gap)
	}
	if dup, gap := g.Admit(3); !dup || gap {
		t.Fatalf("replayed seq 3: dup=%v gap=%v, want duplicate", dup, gap)
	}
	if dup, gap := g.Admit(5); dup || !gap {
		t.Fatalf("seq 5 after 3: dup=%v gap=%v, want gap", dup, gap)
	}
	// A gap is not recorded: the gate still expects 4 and stays broken.
	if dup, gap := g.Admit(6); dup || !gap {
		t.Fatalf("seq 6: dup=%v gap=%v, want gap again", dup, gap)
	}
	if g.last != 3 {
		t.Fatalf("Last() = %d, want 3", g.last)
	}
	if dup, gap := g.Admit(4); dup || gap {
		t.Fatalf("seq 4: dup=%v gap=%v, want clean admit", dup, gap)
	}
}

// TestAdmitFrame pins the one admission policy every log-holding receiver
// runs: the verdict for each class of message, that the epoch is judged before
// the sequence, and that only a fresh frame advances the gate.
func TestAdmitFrame(t *testing.T) {
	const epoch = 2
	msg := func(seq, ep uint64) []byte { return EncodeFrame(&Frame{Seq: seq, Epoch: ep, Payload: []byte{1}}) }
	var g SeqGate
	for _, tc := range []struct {
		name string
		msg  []byte
		want Admission
		last uint64
	}{
		{"first frame", msg(1, epoch), Fresh, 1},
		{"next frame", msg(2, epoch), Fresh, 2},
		{"seen again", msg(1, epoch), Duplicate, 2},
		{"one missing", msg(4, epoch), Gap, 2},
		{"sequence zero", msg(0, epoch), Gap, 2},
		{"older epoch, next sequence", msg(3, epoch-1), StaleEpoch, 2},
		{"older epoch, would-be gap", msg(9, epoch-1), StaleEpoch, 2},
		{"newer epoch, next sequence", msg(3, epoch+1), FutureEpoch, 2},
		{"truncated", msg(3, epoch)[:2], Corrupt, 2},
		{"trailing bytes", append(msg(3, epoch), 0), Corrupt, 2},
		{"the stream goes on", msg(3, epoch), Fresh, 3},
	} {
		frame, got := g.AdmitFrame(tc.msg, epoch)
		if got != tc.want || g.last != tc.last || (frame.Payload == nil) != (tc.want == Corrupt) {
			t.Errorf("%s: verdict %d, gate at %d, frame %v; want verdict %d, gate at %d", tc.name, got, g.last, frame, tc.want, tc.last)
		}
	}
}

// TestSeqGateZero: sequence numbers start at 1, so a frame claiming seq 0 is
// corrupt. Classifying it as a harmless dup (the old `seq <= last` shortcut)
// would drop it silently and leave the gate believing the channel is fine.
func TestSeqGateZero(t *testing.T) {
	var g SeqGate
	if dup, gap := g.Admit(0); dup || !gap {
		t.Fatalf("seq 0 on fresh gate: dup=%v gap=%v, want gap", dup, gap)
	}
	g = SeqGate{}
	if dup, gap := g.Admit(1); dup || gap {
		t.Fatalf("seq 1: dup=%v gap=%v", dup, gap)
	}
	if dup, gap := g.Admit(0); dup || !gap {
		t.Fatalf("seq 0 after 1: dup=%v gap=%v, want gap not dup", dup, gap)
	}
}
