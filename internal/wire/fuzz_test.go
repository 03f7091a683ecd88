package wire

import (
	"bytes"
	"errors"
	"testing"
)

// Fuzz targets for the wire decoders, in the style of the bytecode corpus
// (internal/bytecode/testdata/fuzz): checked-in seeds cover the interesting
// shapes — valid encodings, truncations, trailing garbage, huge varints —
// and the properties pin what "reject" and "round-trip" mean.

// FuzzDecodeFrame: any input either fails with ErrBadRecord or decodes to a
// frame that re-encodes byte-identically (the decoder accepts exactly the
// canonical encoding — no trailing bytes, no over-long payload claims).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeFrame(&Frame{Seq: 1, Epoch: 0, Payload: []byte("hi")}))
	f.Add(EncodeFrame(&Frame{Seq: 900, Epoch: 7, AckWanted: true, Payload: []byte("records")}))
	f.Add(EncodeFrame(&Frame{Seq: 1<<63 + 5, Epoch: 1 << 62, AckWanted: true}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0x00, 0x02, 0x05, 'x'})              // payload shorter than claimed
	f.Add(append(EncodeFrame(&Frame{Seq: 3}), 0xAA))        // trailing garbage
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // unterminated varint
	f.Add([]byte{0x01, 0x01, 0x07, 0x00})                   // bad flags byte
	f.Add(EncodeFrame(&Frame{Seq: 5, Epoch: 2}))            // zero-length payload
	f.Add([]byte{0x01, 0x00, 0x00, 0x03})                   // cut exactly at header boundary
	f.Add(bytes.Repeat([]byte{0xFF}, 11))                   // overlong (not short) varint
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("DecodeFrame error %v does not wrap ErrBadRecord", err)
			}
			return
		}
		// Accepted frames survive an encode/decode round trip unchanged
		// (varints may be non-minimal in the input, so compare values, not
		// bytes).
		fr2, err := DecodeFrame(EncodeFrame(&fr))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if fr2.Seq != fr.Seq || fr2.Epoch != fr.Epoch || fr2.AckWanted != fr.AckWanted ||
			!bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame round trip changed: %+v -> %+v", fr, fr2)
		}
	})
}

// FuzzDecodeAck: same contract for the ack path — the bug class fixed in
// this package was DecodeAck accepting trailing bytes, which let a corrupt
// ack satisfy an output commit.
func FuzzDecodeAck(f *testing.F) {
	f.Add(AppendAck(nil, 0, 1))
	f.Add(AppendAck(nil, 3, 12345))
	f.Add(AppendAck(nil, 1<<62, 1<<63+9))
	f.Add([]byte{})
	f.Add([]byte{0x03})
	f.Add(append(AppendAck(nil, 1, 9), 0x00))
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, seq, err := DecodeAck(data)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("DecodeAck error %v does not wrap ErrBadRecord", err)
			}
			return
		}
		e2, s2, err := DecodeAck(AppendAck(nil, epoch, seq))
		if err != nil || e2 != epoch || s2 != seq {
			t.Fatalf("ack round trip changed: (%d,%d) -> (%d,%d) %v", epoch, seq, e2, s2, err)
		}
	})
}

// addRecordSeeds adds the record-batch seeds FuzzDecodeAll and
// FuzzSkipAgreesWithNext share.
func addRecordSeeds(f *testing.F) {
	var buf Buffer
	_ = buf.Append(&IDMap{LID: 3, TID: "0", TASN: 1})
	_ = buf.Append(&LockAcq{TID: "1", TASN: 2, LID: 3, LASN: 4})
	_ = buf.Append(&Halt{})
	f.Add(append([]byte(nil), buf.Bytes()...))
	buf.Reset()
	_ = buf.Append(&Switch{TID: "0", BrCnt: 9, MethodIdx: 1, PCOff: 2, NextTID: "1"})
	_ = buf.Append(&OutputIntent{TID: "0", NatSeq: 1, Sig: "io.print", OutSeq: 1})
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})
	f.Add(append([]byte(nil), buf.Bytes()[:buf.Len()-1]...))                 // trailing partial record
	f.Add(append([]byte{byte(RecIDMap)}, bytes.Repeat([]byte{0xFF}, 11)...)) // overlong varint field
}

// FuzzDecodeAll: record batches either decode fully or fail; whatever
// decodes re-encodes through a Buffer into a batch that decodes to the same
// number of records of the same types.
func FuzzDecodeAll(f *testing.F) {
	addRecordSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeAll(data)
		if err != nil {
			return
		}
		var out Buffer
		for _, r := range recs {
			if aerr := out.Append(r); aerr != nil {
				t.Fatalf("re-append decoded record: %v", aerr)
			}
		}
		recs2, err := DecodeAll(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("batch round trip changed length: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].Type() != recs2[i].Type() {
				t.Fatalf("record %d changed type %v -> %v", i, recs[i].Type(), recs2[i].Type())
			}
		}
	})
}

// FuzzSkipAgreesWithNext: the allocation-free walk and the building decoder
// are one grammar. Over arbitrary bytes a Skip walk and a Next walk see the
// same records — type and end offset — and stop on the same error: same class
// (ErrTruncated or plain ErrBadRecord), same offset, same text. The cold
// backup acknowledges a frame on the strength of the walk alone, so it
// follows, and is asserted, that what Count accepts DecodeAll decodes.
//
// The backup's span reader rides it too: on every NativeResult the walk
// accepts, Decoder.NativeSpans returns the Sig and HandlerData Next built,
// as sub-slices of the input, and stops at the same offset.
//
// The fleet's typed pair rides the same walk (typedAgrees): at every record,
// Decoder.ClientOp into a caller-owned value agrees with Next on value, end
// offset, error class and error offset, and AppendClientOp writes what
// Buffer.Append writes, byte for byte.
func FuzzSkipAgreesWithNext(f *testing.F) {
	addRecordSeeds(f)
	for _, r := range []Record{
		&IDMap{LID: -3, TID: "0.1", TASN: 12},
		&LockAcq{TID: "0.1", TASN: 1 << 40, LID: 7, LASN: 99},
		&Switch{TID: "0", BrCnt: 900, MethodIdx: -4, PCOff: 17, MonCnt: 3, LASN: 2, Reason: 1, Chk: 1 << 63, NextTID: "0.1"},
		&NativeResult{TID: "0", NatSeq: 2, Sig: "sys.rand", HandlerData: []byte("hd"), Results: []WireValue{
			{Kind: WireNull}, {Kind: WireInt, I: -7}, {Kind: WireFloat, F: 2.5}, {Kind: WireStr, S: "abc"}}},
		&OutputIntent{TID: "0.1", NatSeq: 9, Sig: "io.print", OutSeq: 4, HandlerData: []byte{0}},
		&Heartbeat{Seq: 300},
		&Halt{},
		&LockInterval{TID: "0.2", StartTASN: 10, Count: 64},
		&ClientOp{Client: 5, Req: 6, Tenant: 7, Op: 1, Arg: -8, Result: 9},
	} {
		var one Buffer
		_ = one.Append(r)
		f.Add(one.Bytes())
	}
	f.Add([]byte{byte(RecNativeResult), 0x01, '0', 0x01, 0x01, 'r', 0x01, 0x09}) // bad wire value kind
	f.Add([]byte{byte(NumRecTypes)})                                             // first byte past the type table
	extreme := AppendClientOp(nil, &ClientOp{Client: ^uint64(0), Req: 1 << 63, Tenant: ^uint64(0), Op: 0xFF, Arg: -1 << 63, Result: 1<<63 - 1})
	f.Add(extreme)
	f.Add(extreme[:len(extreme)-3])                                                   // a clientop cut inside its last field
	f.Add(append([]byte{byte(RecClientOp), 0x01}, bytes.Repeat([]byte{0xFF}, 11)...)) // overlong varint inside a clientop
	f.Fuzz(func(t *testing.T, data []byte) {
		n := walkBoth(t, data)
		count, cerr := Count(data)
		recs, derr := DecodeAll(data)
		if (cerr == nil) != (derr == nil) || count != len(recs) {
			t.Fatalf("Count = %d, %v; DecodeAll = %d records, %v", count, cerr, len(recs), derr)
		}
		if cerr == nil && count != n {
			t.Fatalf("Count = %d, the walks saw %d records", count, n)
		}
	})
}

// walkBoth runs a Skip walk and a Next walk over data in step, fails t where
// they part, and returns the number of records both got through.
func walkBoth(t *testing.T, data []byte) (n int) {
	t.Helper()
	skip, next := NewDecoder(data), NewDecoder(data)
	for skip.More() {
		start := next.Offset()
		typ, serr := skip.Skip()
		rec, nerr := next.Next()
		typedAgrees(t, data, start, rec, nerr, next.Offset())
		if skip.Offset() != next.Offset() {
			t.Fatalf("record %d: Skip stands at %d (%v), Next at %d (%v)", n, skip.Offset(), serr, next.Offset(), nerr)
		}
		if serr != nil || nerr != nil {
			if serr == nil || nerr == nil || serr.Error() != nerr.Error() ||
				errors.Is(serr, ErrTruncated) != errors.Is(nerr, ErrTruncated) || !errors.Is(serr, ErrBadRecord) {
				t.Fatalf("record %d: Skip fails with %v, Next with %v", n, serr, nerr)
			}
			return n
		}
		if typ != rec.Type() {
			t.Fatalf("record %d: Skip says %v, Next built a %v", n, typ, rec.Type())
		}
		if nr, ok := rec.(*NativeResult); ok {
			d := Decoder{b: data, pos: start}
			sig, hd, err := d.NativeSpans()
			if err != nil || string(sig) != nr.Sig || !bytes.Equal(hd, nr.HandlerData) || d.Offset() != next.Offset() {
				t.Fatalf("record %d: NativeSpans read %q, %x (%v) to %d; Next built %q, %x to %d",
					n, sig, hd, err, d.Offset(), nr.Sig, nr.HandlerData, next.Offset())
			}
		}
		n++
	}
	if next.More() {
		t.Fatalf("Skip walk ended after %d records at %d, Next has more", n, skip.Offset())
	}
	return n
}

// typedAgrees checks the allocation-free ClientOp decode against what Next
// made of the record starting at start (rec or nerr, ending at end): the same
// value, end offset and error on a clientop; on any other type byte a plain
// ErrBadRecord standing just past that byte, where Next rejects an unknown
// type. What it decodes, AppendClientOp and Buffer.Append re-encode alike.
func typedAgrees(t *testing.T, data []byte, start int, rec Record, nerr error, end int) {
	t.Helper()
	var op ClientOp
	d := Decoder{b: data, pos: start}
	err := d.ClientOp(&op)
	if RecType(data[start]) != RecClientOp {
		if err == nil || !errors.Is(err, ErrBadRecord) || errors.Is(err, ErrTruncated) || d.Offset() != start+1 {
			t.Fatalf("offset %d: ClientOp over a %v record: %v at %d, want ErrBadRecord at %d", start, RecType(data[start]), err, d.Offset(), start+1)
		}
		return
	}
	if d.Offset() != end || (err == nil) != (nerr == nil) {
		t.Fatalf("offset %d: ClientOp stands at %d (%v), Next at %d (%v)", start, d.Offset(), err, end, nerr)
	}
	if err != nil {
		if err.Error() != nerr.Error() || errors.Is(err, ErrTruncated) != errors.Is(nerr, ErrTruncated) || !errors.Is(err, ErrBadRecord) {
			t.Fatalf("offset %d: ClientOp fails with %v, Next with %v", start, err, nerr)
		}
		return
	}
	if built := rec.(*ClientOp); op != *built {
		t.Fatalf("offset %d: ClientOp decoded %+v, Next built %+v", start, op, *built)
	}
	var buf Buffer
	if aerr := buf.Append(&op); aerr != nil || !bytes.Equal(buf.Bytes(), AppendClientOp(nil, &op)) {
		t.Fatalf("offset %d: Buffer.Append wrote %x (%v), AppendClientOp %x", start, buf.Bytes(), aerr, AppendClientOp(nil, &op))
	}
}

// FuzzDecodeRequestReply: the client protocol's two decoders — the bytes a
// fleet node parses from a client and a client from a node — read the same
// input. Each either fails with ErrBadRecord or accepts a message that
// re-encodes and decodes to an equal value, with an op or status inside its
// table (varints may be non-minimal in the input, so values are compared).
func FuzzDecodeRequestReply(f *testing.F) {
	f.Add(EncodeRequest(&Request{Client: 1, Req: 1, Tenant: 7, Op: OpAdd, Arg: -3}))
	f.Add(EncodeRequest(&Request{Client: ^uint64(0), Req: ^uint64(0), Tenant: ^uint64(0), Op: OpSet, Arg: -1 << 63}))
	f.Add(EncodeReply(&Reply{Client: 1, Req: 1, Status: StatusOK, Value: 42, Epoch: 3}))
	f.Add(EncodeReply(&Reply{Client: 9, Req: 1 << 40, Status: StatusStaleReq, Value: 1<<63 - 1, Epoch: 1 << 62}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x01, 0x01})                                 // cut before the op / inside the reply
	f.Add([]byte{0x01, 0x01, 0x01, opMax, 0x00})                    // op just past the table
	f.Add([]byte{0x01, 0x01, statusMax, 0x00, 0x00})                // status just past the table
	f.Add(append(EncodeRequest(&Request{Client: 2, Req: 2}), 0x00)) // trailing byte
	f.Add(append(EncodeReply(&Reply{Client: 2, Req: 2}), 0xAA))     // trailing byte
	f.Add(bytes.Repeat([]byte{0xFF}, 11))                           // overlong varint
	f.Add([]byte{0x80, 0x80, 0x80})                                 // unterminated varint
	f.Add([]byte{0x81, 0x00, 0x01, 0x00, OpGet, 0x80, 0x00})        // non-minimal varints, still a request
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("DecodeRequest error %v does not wrap ErrBadRecord", err)
			}
		} else if again, err := DecodeRequest(EncodeRequest(req)); err != nil || *again != *req || req.Op >= OpKinds() {
			t.Fatalf("request round trip: %+v -> %+v, %v", req, again, err)
		}
		if rep, err := DecodeReply(data); err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("DecodeReply error %v does not wrap ErrBadRecord", err)
			}
		} else if again, err := DecodeReply(EncodeReply(rep)); err != nil || *again != *rep || StatusName(rep.Status) == "invalid" {
			t.Fatalf("reply round trip: %+v -> %+v, %v", rep, again, err)
		}
	})
}
