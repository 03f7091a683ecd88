package wire

import (
	"bytes"
	"errors"
	"testing"
)

// The capture-log reader streams frames off a file that may have been cut
// off mid-write by a crash. These tests pin the truncation-vs-corruption
// contract that reader depends on: a proper prefix of a valid frame or
// record stream fails with ErrShortFrame/ErrTruncated (need more bytes),
// while bytes that can never decode — overlong varints, bad flags, unknown
// record types — fail with plain ErrBadRecord.

func TestFramePrefixEveryTailBoundary(t *testing.T) {
	full := EncodeFrame(&Frame{Seq: 300, Epoch: 7, AckWanted: true, Payload: []byte("payload")})
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeFramePrefix(full[:cut])
		if !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix %d/%d bytes: err=%v, want ErrShortFrame", cut, len(full), err)
		}
		if !errors.Is(err, ErrBadRecord) {
			t.Fatalf("ErrShortFrame must keep wrapping ErrBadRecord; got %v", err)
		}
	}
	f, rest, err := DecodeFramePrefix(full)
	if err != nil || len(rest) != 0 || f.Seq != 300 || !bytes.Equal(f.Payload, []byte("payload")) {
		t.Fatalf("full frame: %+v rest=%d err=%v", f, len(rest), err)
	}
}

func TestFramePrefixZeroLengthPayload(t *testing.T) {
	// A zero-payload frame ends exactly at the header boundary — the case a
	// naive "header present but no payload yet" check misclassifies.
	empty := EncodeFrame(&Frame{Seq: 5, Epoch: 2})
	f, rest, err := DecodeFramePrefix(empty)
	if err != nil || len(rest) != 0 || f.Seq != 5 || len(f.Payload) != 0 {
		t.Fatalf("zero-payload frame: %+v rest=%d err=%v", f, len(rest), err)
	}
	// Concatenated after another frame it must hand back the tail intact.
	next := EncodeFrame(&Frame{Seq: 6, Epoch: 2, Payload: []byte("x")})
	f, rest, err = DecodeFramePrefix(append(append([]byte(nil), empty...), next...))
	if err != nil || f.Seq != 5 || !bytes.Equal(rest, next) {
		t.Fatalf("zero-payload + tail: %+v rest=%q err=%v", f, rest, err)
	}
}

func TestFramePrefixCorruptionIsNotShort(t *testing.T) {
	cases := map[string][]byte{
		"overlong seq varint":   bytes.Repeat([]byte{0xFF}, 11),
		"bad flags byte":        {0x01, 0x00, 0x07, 0x00},
		"overlong length":       append([]byte{0x01, 0x00, 0x01}, bytes.Repeat([]byte{0xFF}, 11)...),
		"overlong epoch varint": append([]byte{0x01}, bytes.Repeat([]byte{0xFF}, 11)...),
	}
	for name, in := range cases {
		_, _, err := DecodeFramePrefix(in)
		if !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err=%v, want ErrBadRecord", name, err)
		}
		if errors.Is(err, ErrShortFrame) {
			t.Errorf("%s: classified as short frame, but no amount of extra bytes can fix it: %v", name, err)
		}
	}
}

// TestDecoderEveryTailBoundary cuts an encoded record batch at every byte
// position: each cut either decodes a shorter batch (the cut landed on a
// record boundary) or fails with ErrTruncated — never with a plain
// corruption error, and never silently succeeding past a partial record —
// and at each cut the Skip walk and the Next walk agree (walkBoth).
func TestDecoderEveryTailBoundary(t *testing.T) {
	var buf Buffer
	recs := []Record{
		&IDMap{LID: 3, TID: "0.1", TASN: 12},
		&NativeResult{
			TID: "0", NatSeq: 2, Sig: "sys.rand",
			Results:     []WireValue{{Kind: WireInt, I: -7}, {Kind: WireStr, S: "abc"}, {Kind: WireNull}},
			HandlerData: []byte{'r'},
		},
		&Switch{TID: "0", BrCnt: 900, MethodIdx: 4, PCOff: 17, MonCnt: 3, LASN: 2, Reason: 1, Chk: 1 << 40, NextTID: "0.1"},
		&OutputIntent{TID: "0.1", NatSeq: 9, Sig: "io.print", OutSeq: 4},
		&Halt{},
	}
	for _, r := range recs {
		if err := buf.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	complete := 0
	for cut := 0; cut <= len(full); cut++ {
		got, err := DecodeAll(full[:cut])
		if n := walkBoth(t, full[:cut]); err == nil && n != len(got) {
			t.Fatalf("cut at %d/%d: the walks saw %d records, DecodeAll %d", cut, len(full), n, len(got))
		}
		if err == nil {
			complete++
			if cut == len(full) && len(got) != len(recs) {
				t.Fatalf("full batch decoded %d records, want %d", len(got), len(recs))
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: err=%v, want ErrTruncated", cut, len(full), err)
		}
	}
	// One clean decode per record boundary (including the empty prefix).
	if complete != len(recs)+1 {
		t.Fatalf("%d clean decode positions, want %d record boundaries", complete, len(recs)+1)
	}
}

func TestDecoderCorruptionIsNotTruncated(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xFF}, 11)
	cases := map[string][]byte{
		"unknown record type": {0xEE},
		"overlong varint lid": append([]byte{byte(RecIDMap)}, overlong...),
		"overlong uvarint seq": append([]byte{byte(RecHeartbeat)}, overlong...),
		// NativeResult claiming 2^20 results: rejected before allocating.
		"implausible result count": {byte(RecNativeResult), 0x01, '0', 0x01, 0x01, 'r', 0x80, 0x80, 0x40},
	}
	for name, in := range cases {
		_, err := DecodeAll(in)
		if !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err=%v, want ErrBadRecord", name, err)
		}
		if errors.Is(err, ErrTruncated) {
			t.Errorf("%s: classified as truncation: %v", name, err)
		}
	}
}
