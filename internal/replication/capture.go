package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/atomicio"
	"repro/internal/bytecode"
	"repro/internal/wire"
)

// The .ftlog capture format: a durable copy of the replication event stream
// plus everything needed to re-create the primary's initial conditions, so
// the time-travel debugger can reconstruct any intermediate machine state
// offline. Layout:
//
//	magic "FTLOG", then the format version byte (logVersion)
//	header varints: ProgHash, EnvSeed, PolicySeed, MinQuantum, MaxQuantum,
//	                Mode, 0, Epoch, MaxInstructions, 0
//	uvarint program length, then the bytecode.EncodeBytes image
//	zero or more wire frames, one logged record per frame (Seq contiguous
//	from 1, Epoch = header epoch)
//
// Reusing the replication channel's frame format means a reader exercises
// the exact DecodeFramePrefix tail-boundary paths the backup uses, and a
// log truncated by a crash mid-write is detected (ErrShortFrame) rather
// than silently shortened.
//
// Halt and heartbeat records are stripped at capture time: heartbeats are
// liveness noise, and a clean run's halt marker would make the log refuse
// to replay (analysis treats a halted log as needing no recovery). The
// capture of a clean run therefore replays as a crash at its final record,
// which is exactly the debugger's model — run the log out, then inspect.
//
// The two 0 slots are retired: they held the interpreter stream and the GC
// trigger, neither of which determines the logged execution (both streams
// write the same log; every replica collects at the VM's default). They are
// written as 0 and read past, so older captures still open.

// logMagic identifies an .ftlog file; the byte after it is the format
// version. Version 2 keeps version 1's layout but its Switch records carry
// the per-branch control-path checksum (vm.ProgressSnapshot), which a
// version-1 log's per-bytecode values can never match — so an old capture is
// refused here, by version, not as a divergence deep inside a replay.
const (
	logMagic   = "FTLOG"
	logVersion = 2
)

// ErrNotLog reports that a file is not an .ftlog capture.
var ErrNotLog = errors.New("not an ftlog capture file")

// ErrLogVersion reports an .ftlog capture of another format version.
var ErrLogVersion = errors.New("unsupported ftlog format version")

// LogHeader records the initial conditions of the captured run.
type LogHeader struct {
	// ProgHash fingerprints the embedded program (FNV-1a over its encoded
	// image); readers verify it so a corrupted embed fails loudly.
	ProgHash uint64
	// EnvSeed seeds the environment (clock, entropy) the run started with.
	EnvSeed int64
	// PolicySeed seeds the scheduling policy a replay of this log uses —
	// the recovery policy seed, already folded the way the capturing path
	// folds it, so replayers pass it to NewSeededPolicy verbatim.
	PolicySeed int64
	// MinQuantum and MaxQuantum bound the replay policy's slice budgets.
	MinQuantum, MaxQuantum uint64
	// Mode is the replication mode the log was recorded under.
	Mode Mode
	// Epoch is the view epoch the records were sent in.
	Epoch uint64
	// MaxInstructions caps replay execution (0 = none).
	MaxInstructions uint64
}

// Log is a decoded .ftlog capture.
type Log struct {
	Header  LogHeader
	Prog    *bytecode.Program
	Records []wire.Record
}

// HashProgram fingerprints a program image with 64-bit FNV-1a.
func HashProgram(img []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range img {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// EncodeLog serialises a capture. The header's ProgHash is computed here;
// halt and heartbeat records are stripped (see the format comment).
func EncodeLog(hdr LogHeader, prog *bytecode.Program, records []wire.Record) ([]byte, error) {
	img, err := bytecode.EncodeBytes(prog)
	if err != nil {
		return nil, fmt.Errorf("encode program: %w", err)
	}
	hdr.ProgHash = HashProgram(img)

	out := append([]byte(logMagic), logVersion)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) { out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	sv := func(v int64) { out = append(out, tmp[:binary.PutVarint(tmp[:], v)]...) }

	uv(hdr.ProgHash)
	sv(hdr.EnvSeed)
	sv(hdr.PolicySeed)
	uv(hdr.MinQuantum)
	uv(hdr.MaxQuantum)
	uv(uint64(hdr.Mode))
	uv(0) // retired: the interpreter stream
	uv(hdr.Epoch)
	uv(hdr.MaxInstructions)
	sv(0) // retired: the GC trigger
	uv(uint64(len(img)))
	out = append(out, img...)

	var seq uint64
	var payload wire.Buffer
	for _, r := range records {
		switch r.(type) {
		case *wire.Halt, *wire.Heartbeat:
			continue
		}
		payload.Reset()
		if err := payload.Append(r); err != nil {
			return nil, err
		}
		seq++
		out = wire.AppendFrame(out, &wire.Frame{
			Seq:     seq,
			Epoch:   hdr.Epoch,
			Payload: payload.Bytes(),
		})
	}
	return out, nil
}

// DecodeLog parses a capture produced by EncodeLog. A tail cut mid-frame
// (crash during append) is reported as a truncation error naming the last
// complete record, so partial captures fail loudly instead of replaying a
// silently shortened history.
func DecodeLog(b []byte) (*Log, error) {
	if len(b) <= len(logMagic) || string(b[:len(logMagic)]) != logMagic {
		return nil, ErrNotLog
	}
	if v := b[len(logMagic)]; v != logVersion {
		return nil, fmt.Errorf("%w: file is version %d, this build reads version %d; capture the log again", ErrLogVersion, v, logVersion)
	}
	c := logCursor{b: b, off: len(logMagic) + 1}

	var hdr LogHeader
	var err error
	read := func(dst *uint64, what string) {
		if err == nil {
			*dst, err = c.uv(what)
		}
	}
	readS := func(dst *int64, what string) {
		if err == nil {
			*dst, err = c.sv(what)
		}
	}
	var mode, retired uint64
	var retiredS int64
	read(&hdr.ProgHash, "program hash")
	readS(&hdr.EnvSeed, "env seed")
	readS(&hdr.PolicySeed, "policy seed")
	read(&hdr.MinQuantum, "min quantum")
	read(&hdr.MaxQuantum, "max quantum")
	read(&mode, "mode")
	read(&retired, "dispatch")
	read(&hdr.Epoch, "epoch")
	read(&hdr.MaxInstructions, "instruction cap")
	readS(&retiredS, "gc threshold")
	if err != nil {
		return nil, err
	}
	hdr.Mode = Mode(mode)

	plen, err := c.uv("program length")
	if err != nil {
		return nil, err
	}
	img, err := c.take(plen, "program image")
	if err != nil {
		return nil, err
	}
	if got := HashProgram(img); got != hdr.ProgHash {
		return nil, fmt.Errorf("ftlog: program hash mismatch: header %#x, embedded %#x", hdr.ProgHash, got)
	}
	prog, err := bytecode.DecodeBytes(img)
	if err != nil {
		return nil, fmt.Errorf("ftlog: decode program: %w", err)
	}

	var records []wire.Record
	tail := b[c.off:]
	var seq uint64
	for len(tail) > 0 {
		f, rest, ferr := wire.DecodeFramePrefix(tail)
		if ferr != nil {
			if errors.Is(ferr, wire.ErrShortFrame) {
				return nil, fmt.Errorf("ftlog: truncated after record %d: %w", seq, ferr)
			}
			return nil, fmt.Errorf("ftlog: record %d: %w", seq+1, ferr)
		}
		if f.Seq != seq+1 {
			return nil, fmt.Errorf("ftlog: record sequence gap: want %d, got %d", seq+1, f.Seq)
		}
		seq = f.Seq
		recs, derr := wire.DecodeAll(f.Payload)
		if derr != nil {
			return nil, fmt.Errorf("ftlog: record %d payload: %w", seq, derr)
		}
		if len(recs) != 1 {
			return nil, fmt.Errorf("ftlog: record %d: frame holds %d records, want 1", seq, len(recs))
		}
		records = append(records, recs[0])
		tail = rest
	}

	return &Log{Header: hdr, Prog: prog, Records: records}, nil
}

// WriteLogFile writes a capture atomically (temp file + rename), so a crash
// mid-write never leaves a half-log under the target name.
func WriteLogFile(path string, hdr LogHeader, prog *bytecode.Program, records []wire.Record) error {
	data, err := EncodeLog(hdr, prog, records)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, data, 0o644)
}

// ReadLogFile reads and parses a capture.
func ReadLogFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l, err := DecodeLog(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// logCursor walks the header region with bounds checking.
type logCursor struct {
	b   []byte
	off int
}

func (c *logCursor) uv(what string) (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ftlog: header %s malformed", what)
	}
	c.off += n
	return v, nil
}

func (c *logCursor) sv(what string) (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ftlog: header %s malformed", what)
	}
	c.off += n
	return v, nil
}

// take returns the next n bytes. n comes from the file, so it is compared
// against what is left as a uint64: converted to int and added to the offset
// first, a length near 1<<63 wraps negative, passes the check and panics in
// the slice expression.
func (c *logCursor) take(n uint64, what string) ([]byte, error) {
	if left := uint64(len(c.b) - c.off); n > left {
		return nil, fmt.Errorf("ftlog: header %s cut short: length %d, %d bytes left", what, n, left)
	}
	v := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return v, nil
}
