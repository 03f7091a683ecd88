package wire

import (
	"testing"
)

// The log record path runs once per monitor acquisition / thread switch on
// the primary's critical path; these tests pin its allocation behaviour so a
// refactor cannot silently reintroduce per-record garbage.

func TestBufferAppendAllocFree(t *testing.T) {
	var buf Buffer
	recs := []Record{
		&LockAcq{TID: "0.1", TASN: 42, LID: 7, LASN: 99},
		&IDMap{LID: 7, TID: "0.1", TASN: 42},
		&Switch{TID: "0.1", BrCnt: 1000, MethodIdx: 3, PCOff: 17, MonCnt: 12, LASN: 5, Reason: 1, Chk: 0xdeadbeef, NextTID: "0.2"},
		&LockInterval{TID: "0.1", StartTASN: 10, Count: 64},
		&Heartbeat{Seq: 9},
	}
	// Warm up: let the byte slice reach steady-state capacity.
	for i := 0; i < 64; i++ {
		for _, r := range recs {
			if err := buf.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		buf.Reset()
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		for _, r := range recs {
			if err := buf.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Buffer.Append steady-state allocs/run = %v, want 0", allocs)
	}
}

func TestAppendFrameAllocFree(t *testing.T) {
	payload := make([]byte, 4096)
	dst := make([]byte, 0, len(payload)+64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendFrame(dst[:0], &Frame{Seq: 12345, AckWanted: true, Payload: payload})
	})
	if allocs != 0 {
		t.Errorf("AppendFrame with capacity allocs/run = %v, want 0", allocs)
	}
}

func TestEncodeFrameSingleAlloc(t *testing.T) {
	payload := make([]byte, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		_ = EncodeFrame(&Frame{Seq: 12345, AckWanted: true, Payload: payload})
	})
	if allocs > 1 {
		t.Errorf("EncodeFrame allocs/run = %v, want <= 1", allocs)
	}
}

// Every receiver decodes each frame it is handed and acknowledges it: the
// frame comes back by value, its payload aliasing the message, and the ack is
// appended into the receiver's own buffer, so neither step allocates.
func TestFrameDecodeAndAckAllocFree(t *testing.T) {
	msg := EncodeFrame(&Frame{Seq: 12345, Epoch: 3, AckWanted: true, Payload: make([]byte, 4096)})
	var gate SeqGate
	ack := AppendAck(nil, 3, 12345)
	allocs := testing.AllocsPerRun(100, func() {
		f, err := DecodeFrame(msg)
		if err != nil || f.Seq != 12345 {
			t.Fatalf("DecodeFrame = %+v, %v", f.Seq, err)
		}
		if _, rest, err := DecodeFramePrefix(msg); err != nil || len(rest) != 0 {
			t.Fatalf("DecodeFramePrefix: %d bytes left, %v", len(rest), err)
		}
		gate.last = 12344
		if _, verdict := gate.AdmitFrame(msg, 3); verdict != Fresh {
			t.Fatalf("AdmitFrame verdict %d, want Fresh", verdict)
		}
		ack = AppendAck(ack[:0], 3, f.Seq)
	})
	if allocs != 0 {
		t.Errorf("DecodeFrame + DecodeFramePrefix + AdmitFrame + AppendAck allocs/run = %v, want 0", allocs)
	}
}

// lockBatch is a 512-record lock-mode batch: what the primary ships per frame
// in the db benchmark, id maps and native results at about its rates.
func lockBatch(tb testing.TB) []byte {
	tb.Helper()
	var buf Buffer
	for i := 0; i < 512; i++ {
		var r Record = &LockAcq{TID: "0.1", TASN: uint64(40000 + i), LID: int64(i % 7), LASN: uint64(60000 + i)}
		switch {
		case i%64 == 0:
			r = &IDMap{LID: int64(i), TID: "0.1", TASN: uint64(40000 + i)}
		case i%50 == 0:
			r = &NativeResult{TID: "0.1", NatSeq: uint64(i), Sig: "sys.rand", Results: []WireValue{{Kind: WireInt, I: int64(i)}}}
		}
		if err := buf.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The cold backup walks every frame with Skip before acknowledging it; the
// walk must build nothing.
func TestSkipWalkAllocFree(t *testing.T) {
	batch := lockBatch(t)
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := Count(batch); err != nil || n != 512 {
			t.Fatalf("Count = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Skip walk allocs/batch = %v, want 0", allocs)
	}
}

// A fleet shard encodes each op once, onto its log, and replays the log into
// one reused value: neither direction of the typed ClientOp pair may allocate.
func TestClientOpPairAllocFree(t *testing.T) {
	log := make([]byte, 0, 64*40)
	allocs := testing.AllocsPerRun(100, func() {
		log = log[:0]
		for i := 0; i < 64; i++ {
			log = AppendClientOp(log, &ClientOp{Client: uint64(i) << 20, Req: 2, Tenant: 9, Op: OpAdd, Arg: -int64(i), Result: 1 << 40})
		}
		var op ClientOp
		d, n := Decoder{b: log}, 0
		for ; d.More(); n++ {
			if err := d.ClientOp(&op); err != nil {
				t.Fatal(err)
			}
		}
		if n != 64 || op.Client != 63<<20 || op.Arg != -63 {
			t.Fatalf("replayed %d records ending in %+v", n, op)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendClientOp + Decoder.ClientOp allocs/run = %v, want 0", allocs)
	}
}

// BenchmarkDecoderSkip and BenchmarkDecoderNext are the two walks over one
// batch: what validating a frame costs against what decoding it cost.
func BenchmarkDecoderSkip(b *testing.B) {
	batch := lockBatch(b)
	b.SetBytes(int64(len(batch)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Count(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/512, "ns/record")
}

func BenchmarkDecoderNext(b *testing.B) {
	batch := lockBatch(b)
	b.SetBytes(int64(len(batch)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeAll(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/512, "ns/record")
}
