package replication_test

import (
	"encoding/binary"
	"testing"

	ftvm "repro"
	"repro/internal/bytecode"
	"repro/internal/replication"
	"repro/internal/wire"
)

// FuzzDecodeLog: an .ftlog is a file a user hands to ftvm-debug, so any bytes
// at all either fail with an error or decode to a Log that encodes again and
// whose re-encoding decodes to the same records — never a panic. Seeds: one
// capture per replication mode with the records that mode logs, a version-1
// header, the first capture cut at every section boundary (magic, version,
// each header varint, program length, program image, each frame) plus one
// byte either side, and a program length near 1<<63.
func FuzzDecodeLog(f *testing.F) {
	prog, err := bytecode.AssembleString("method main 0 void\n  ret\nend")
	if err != nil {
		f.Fatal(err)
	}
	native := &wire.NativeResult{TID: "0", NatSeq: 1, Sig: "sys.rand()I",
		Results: []wire.WireValue{{Kind: wire.WireInt, I: 7}, {Kind: wire.WireStr, S: "x"}}, HandlerData: []byte{1, 2}}
	output := &wire.OutputIntent{TID: "0", NatSeq: 2, Sig: "sys.println(S)V", OutSeq: 1}
	perMode := map[ftvm.Mode][]wire.Record{
		ftvm.ModeLock: {&wire.IDMap{LID: 3, TID: "0", TASN: 1}, &wire.LockAcq{TID: "0", TASN: 1, LID: 3, LASN: 1},
			native, output, &wire.Halt{}},
		ftvm.ModeSched: {&wire.Switch{TID: "0", BrCnt: 40, MethodIdx: 0, PCOff: 2, MonCnt: 1, Chk: 0xfeed, NextTID: "0.1"},
			native, &wire.Heartbeat{Seq: 9}, output},
		ftvm.ModeLockInterval: {&wire.IDMap{LID: 3, TID: "0.1", TASN: 4}, &wire.LockInterval{TID: "0.1", StartTASN: 4, Count: 12}, output},
	}
	var first []byte
	for mode, recs := range perMode {
		data, err := replication.EncodeLog(replication.LogHeader{
			EnvSeed: -5, PolicySeed: 77, MinQuantum: 100, MaxQuantum: 900, Mode: mode,
			Epoch: 2, MaxInstructions: 50_000_000, GCThreshold: 1 << 20,
		}, prog, recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if mode == ftvm.ModeLock {
			first = data
		}
	}
	old := append([]byte(nil), first...)
	old[5] = 1
	f.Add(old)
	for _, cut := range sectionBoundaries(f, first) {
		for _, at := range []int{cut - 1, cut, cut + 1} {
			if at >= 0 && at <= len(first) {
				f.Add(first[:at])
			}
		}
	}
	// A program length that overflows int when added to the cursor.
	f.Add(append(append([]byte(nil), first[:programLengthOffset(f, first)]...),
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := replication.DecodeLog(data)
		if err != nil {
			return
		}
		again, err := replication.EncodeLog(l.Header, l.Prog, l.Records)
		if err != nil {
			t.Fatalf("decoded log does not encode again: %v", err)
		}
		l2, err := replication.DecodeLog(again)
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v", err)
		}
		// EncodeLog computes the hash and strips halt/heartbeat; everything
		// else must survive.
		l.Header.ProgHash = l2.Header.ProgHash
		if l2.Header != l.Header {
			t.Fatalf("header changed across a round trip:\n  %+v\n  %+v", l.Header, l2.Header)
		}
		kept := 0
		for _, r := range l.Records {
			switch r.(type) {
			case *wire.Halt, *wire.Heartbeat:
			default:
				kept++
			}
		}
		if len(l2.Records) != kept {
			t.Fatalf("%d records survived a round trip, want %d", len(l2.Records), kept)
		}
	})
}

// programLengthOffset walks the fixed part of a capture — magic, version, ten
// header varints — to where the program length starts.
func programLengthOffset(f *testing.F, data []byte) int {
	off := len("FTLOG") + 1
	for i := 0; i < 10; i++ {
		_, n := binary.Uvarint(data[off:]) // byte length is the same for signed ones
		if n <= 0 {
			f.Fatalf("seed capture: header varint %d malformed", i)
		}
		off += n
	}
	return off
}

// sectionBoundaries lists the offset at which each section of a capture ends.
func sectionBoundaries(f *testing.F, data []byte) []int {
	cuts := []int{len("FTLOG"), len("FTLOG") + 1}
	off := cuts[1]
	for end := programLengthOffset(f, data); off < end; {
		_, n := binary.Uvarint(data[off:])
		off += n
		cuts = append(cuts, off)
	}
	plen, n := binary.Uvarint(data[off:])
	off += n
	cuts = append(cuts, off, off+int(plen))
	off += int(plen)
	for off < len(data) {
		_, rest, err := wire.DecodeFramePrefix(data[off:])
		if err != nil {
			f.Fatalf("seed capture: frame at %d: %v", off, err)
		}
		off = len(data) - len(rest)
		cuts = append(cuts, off)
	}
	return cuts
}
