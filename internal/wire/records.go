// Package wire defines the replication log record types and their binary
// wire format: lock acquisition records and id maps (§4.2, replicated lock
// synchronization), thread scheduling records (§4.2, replicated thread
// scheduling), native-method result records (§4.1), output-commit intent
// markers (§3.4), and the framing/ack protocol spoken over a transport.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// RecType tags a record on the wire.
type RecType uint8

// Record types.
const (
	RecInvalid RecType = iota
	RecIDMap
	RecLockAcq
	RecSwitch
	RecNativeResult
	RecOutputIntent
	RecHeartbeat
	RecHalt
	RecLockInterval
	RecClientOp
	NumRecTypes // the length of an array indexed by RecType
)

func (t RecType) String() string {
	if t == RecInvalid || t >= NumRecTypes {
		return "invalid"
	}
	return recTypes[t].name
}

// recTypes is the table of record types: each one's name and, for
// Decoder.Skip, its field grammar in wire order — b byte, u uvarint, v zig-zag
// varint, s length-prefixed string or byte run, R a NativeResult's counted
// value list. RecInvalid and anything past the table is not a record type.
var recTypes = [NumRecTypes]struct{ name, layout string }{
	RecIDMap:        {"idmap", "vsu"},
	RecLockAcq:      {"lockacq", "suvu"},
	RecSwitch:       {"switch", "suvvuubus"},
	RecNativeResult: {"native", "susRs"},
	RecOutputIntent: {"output", "susus"},
	RecHeartbeat:    {"heartbeat", "u"},
	RecHalt:         {"halt", ""},
	RecLockInterval: {"lockinterval", "suu"},
	RecClientOp:     {"clientop", "uuubvv"},
}

// Record is any replication log record.
type Record interface {
	Type() RecType
}

// IDMap associates a virtual lock id with the thread acquisition that first
// acquired the lock at the primary: (l_id, t_id, t_asn).
type IDMap struct {
	LID  int64
	TID  string
	TASN uint64
}

// Type implements Record.
func (*IDMap) Type() RecType { return RecIDMap }

// LockAcq is a lock acquisition record: (t_id, t_asn, l_id, l_asn).
type LockAcq struct {
	TID  string
	TASN uint64
	LID  int64
	LASN uint64
}

// Type implements Record.
func (*LockAcq) Type() RecType { return RecLockAcq }

// LockInterval is the compressed form of a run of lock acquisition records
// (the DejaVu-style logical intervals of §6): thread TID performed Count
// consecutive monitor acquisitions — with no interleaved acquisition by any
// other thread — starting at its acquire sequence number StartTASN. Because
// threads execute deterministic programs, the interval's global position
// fully determines which locks were acquired; neither l_ids nor id maps are
// needed.
type LockInterval struct {
	TID       string
	StartTASN uint64
	Count     uint64
}

// Type implements Record.
func (*LockInterval) Type() RecType { return RecLockInterval }

// Switch is a thread scheduling record: the progress indicators of the
// descheduled thread plus the id of the next scheduled thread:
// (br_cnt, pc_off, mon_cnt, l_asn, t_id) per §4.2.
type Switch struct {
	TID       string // descheduled thread ("" at the very first dispatch)
	BrCnt     uint64 // cumulative control-flow changes executed by TID
	MethodIdx int32  // method executing at deschedule (progress cross-check)
	PCOff     int32  // bytecode offset within that method
	MonCnt    uint64 // monitor acquisitions+releases performed by TID
	LASN      uint64 // acquire seq number of the monitor TID waits on (0 none)
	Reason    uint8  // thread state at deschedule (vm.ThreadState): blocking
	//               // instructions run in phases at one (br_cnt, pc), so the
	//               // state disambiguates which phase the switch landed on
	Chk     uint64 // rolling control-path checksum (divergence detection)
	NextTID string // thread scheduled next
}

// Type implements Record.
func (*Switch) Type() RecType { return RecSwitch }

// WireValue is a replica-independent encoding of a native-method result:
// heap references are flattened (only null and string referents may cross
// the wire; other reference results would be meaningless at the backup).
type WireValue struct {
	Kind uint8 // 0 null, 1 int, 2 float, 3 string
	I    int64
	F    float64
	S    string
}

// WireValue kinds.
const (
	WireNull uint8 = iota
	WireInt
	WireFloat
	WireStr
)

// NativeResult logs the results of one intercepted native-method invocation:
// the invoking thread, its per-thread native sequence number, the method
// signature, the result values, and opaque side-effect-handler state
// produced by the handler's log method.
type NativeResult struct {
	TID         string
	NatSeq      uint64
	Sig         string
	Results     []WireValue
	HandlerData []byte
}

// Type implements Record.
func (*NativeResult) Type() RecType { return RecNativeResult }

// OutputIntent marks an output commit point: the primary logs it, flushes,
// and waits for an ack before performing the output (§3.4). If it is the
// final record in the log, the output's completion is uncertain and must be
// tested or idempotently replayed during recovery.
type OutputIntent struct {
	TID         string
	NatSeq      uint64
	Sig         string
	OutSeq      uint64
	HandlerData []byte
}

// Type implements Record.
func (*OutputIntent) Type() RecType { return RecOutputIntent }

// ClientOp records one executed client request: which client asked, the
// request's per-client sequence number, the tenant it addressed, the
// operation, and the result the primary computed. It is the at-most-once
// dedup table riding the replication log — a backup that replays its log
// rebuilds, besides every tenant's state, the (client → last request, last
// result) table, so a retry that crosses a failover is answered from the log
// instead of being executed a second time.
type ClientOp struct {
	Client uint64
	Req    uint64
	Tenant uint64
	Op     uint8
	Arg    int64
	Result int64
}

// Type implements Record.
func (*ClientOp) Type() RecType { return RecClientOp }

// Heartbeat carries liveness from primary to backup.
type Heartbeat struct {
	Seq uint64
}

// Type implements Record.
func (*Heartbeat) Type() RecType { return RecHeartbeat }

// Halt marks a clean, final shutdown of the primary (no failover needed).
type Halt struct{}

// Type implements Record.
func (*Halt) Type() RecType { return RecHalt }

// ErrBadRecord is wrapped by all decoding failures.
var ErrBadRecord = errors.New("bad wire record")

// ErrTruncated is the record-stream analogue of ErrShortFrame: the input
// ended in the middle of a record, so what is there is a prefix of a valid
// stream rather than bytes that can never decode. It wraps ErrBadRecord (a
// transport payload is always a complete batch, so existing callers treat it
// as corruption); readers that may see a partial tail — a capture file cut
// off by a crash — distinguish it with errors.Is.
var ErrTruncated = fmt.Errorf("%w: truncated record", ErrBadRecord)

// Buffer accumulates encoded records.
type Buffer struct {
	b []byte
	n int // record count
}

// Len returns the byte length of the encoded records.
func (w *Buffer) Len() int { return len(w.b) }

// Count returns the number of records appended.
func (w *Buffer) Count() int { return w.n }

// Bytes returns the encoded records (valid until the next Append/Reset).
func (w *Buffer) Bytes() []byte { return w.b }

// Reset clears the buffer.
func (w *Buffer) Reset() { w.b = w.b[:0]; w.n = 0 }

func (w *Buffer) u8(v uint8)     { w.b = append(w.b, v) }
func (w *Buffer) uv(v uint64)    { w.b = binary.AppendUvarint(w.b, v) }
func (w *Buffer) sv(v int64)     { w.b = binary.AppendVarint(w.b, v) }
func (w *Buffer) str(s string)   { w.uv(uint64(len(s))); w.b = append(w.b, s...) }
func (w *Buffer) bytes(p []byte) { w.uv(uint64(len(p))); w.b = append(w.b, p...) }

// Append encodes r into the buffer.
func (w *Buffer) Append(r Record) error {
	w.u8(uint8(r.Type()))
	switch rec := r.(type) {
	case *IDMap:
		w.sv(rec.LID)
		w.str(rec.TID)
		w.uv(rec.TASN)
	case *LockAcq:
		w.str(rec.TID)
		w.uv(rec.TASN)
		w.sv(rec.LID)
		w.uv(rec.LASN)
	case *Switch:
		w.str(rec.TID)
		w.uv(rec.BrCnt)
		w.sv(int64(rec.MethodIdx))
		w.sv(int64(rec.PCOff))
		w.uv(rec.MonCnt)
		w.uv(rec.LASN)
		w.u8(rec.Reason)
		w.uv(rec.Chk)
		w.str(rec.NextTID)
	case *NativeResult:
		w.str(rec.TID)
		w.uv(rec.NatSeq)
		w.str(rec.Sig)
		w.uv(uint64(len(rec.Results)))
		for _, v := range rec.Results {
			w.u8(v.Kind)
			switch v.Kind {
			case WireInt:
				w.sv(v.I)
			case WireFloat:
				w.uv(math.Float64bits(v.F))
			case WireStr:
				w.str(v.S)
			}
		}
		w.bytes(rec.HandlerData)
	case *OutputIntent:
		w.str(rec.TID)
		w.uv(rec.NatSeq)
		w.str(rec.Sig)
		w.uv(rec.OutSeq)
		w.bytes(rec.HandlerData)
	case *LockInterval:
		w.str(rec.TID)
		w.uv(rec.StartTASN)
		w.uv(rec.Count)
	case *ClientOp:
		w.b = AppendClientOp(w.b[:len(w.b)-1], rec) // it writes the type byte too
	case *Heartbeat:
		w.uv(rec.Seq)
	case *Halt:
	default:
		return fmt.Errorf("%w: unknown record type %T", ErrBadRecord, r)
	}
	w.n++
	return nil
}

// AppendClientOp appends op's encoding, type byte included, to dst: a fleet
// shard encodes straight onto its log, with no Buffer and no error to handle.
func AppendClientOp(dst []byte, op *ClientOp) []byte {
	dst = append(dst, uint8(RecClientOp))
	dst = binary.AppendUvarint(dst, op.Client)
	dst = binary.AppendUvarint(dst, op.Req)
	dst = binary.AppendUvarint(dst, op.Tenant)
	dst = append(dst, op.Op)
	dst = binary.AppendVarint(dst, op.Arg)
	return binary.AppendVarint(dst, op.Result)
}

// Decoder reads records from an encoded byte stream.
type Decoder struct {
	b   []byte
	pos int
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// More reports whether records remain and no error has occurred.
func (d *Decoder) More() bool { return d.err == nil && d.pos < len(d.b) }

// fail records the first error. class is ErrTruncated when the input ended
// inside a record (a proper prefix of a valid stream, which streaming readers
// tell from corruption), ErrBadRecord when no further byte could mend it.
func (d *Decoder) fail(class error, msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", class, msg, d.pos)
	}
}

func (d *Decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.fail(ErrTruncated, "byte cut short")
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *Decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n == 0 {
		d.fail(ErrTruncated, "varint cut short")
		return 0
	}
	if n < 0 {
		d.fail(ErrBadRecord, "overlong varint")
		return 0
	}
	d.pos += n
	return v
}

// sv reads a zig-zag varint: the same bytes as a uvarint, folded as
// binary.Varint folds them.
func (d *Decoder) sv() int64 {
	u := d.uv()
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// span consumes a length-prefixed byte run and returns it un-copied, capped
// at its own length (nil after an error).
func (d *Decoder) span() []byte {
	n := d.uv()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.pos) < n {
		d.fail(ErrTruncated, "string cut short")
		return nil
	}
	s := d.b[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return s
}

func (d *Decoder) str() string   { return string(d.span()) }
func (d *Decoder) bytes() []byte { return append([]byte{}, d.span()...) }

// resultCount reads a NativeResult's value count, rejecting an implausible
// one before anything is sized by it.
func (d *Decoder) resultCount() uint64 {
	n := d.uv()
	if d.err == nil && n > 1<<16 {
		d.fail(ErrBadRecord, "implausible result count")
	}
	return n
}

// value reads one NativeResult value; without build a string referent is
// walked over, not copied out.
func (d *Decoder) value(build bool) WireValue {
	v := WireValue{Kind: d.u8()}
	switch v.Kind {
	case WireNull:
	case WireInt:
		v.I = d.sv()
	case WireFloat:
		v.F = math.Float64frombits(d.uv())
	case WireStr:
		if s := d.span(); build {
			v.S = string(s)
		}
	default:
		d.fail(ErrBadRecord, "bad wire value kind")
	}
	return v
}

// Next decodes the next record.
func (d *Decoder) Next() (Record, error) {
	t := RecType(d.u8())
	if d.err != nil {
		return nil, d.err
	}
	var r Record
	switch t {
	case RecIDMap:
		r = &IDMap{LID: d.sv(), TID: d.str(), TASN: d.uv()}
	case RecLockAcq:
		r = &LockAcq{TID: d.str(), TASN: d.uv(), LID: d.sv(), LASN: d.uv()}
	case RecSwitch:
		r = &Switch{
			TID: d.str(), BrCnt: d.uv(),
			MethodIdx: int32(d.sv()), PCOff: int32(d.sv()),
			MonCnt: d.uv(), LASN: d.uv(), Reason: d.u8(), Chk: d.uv(), NextTID: d.str(),
		}
	case RecNativeResult:
		rec := &NativeResult{TID: d.str(), NatSeq: d.uv(), Sig: d.str()}
		for n := d.resultCount(); n > 0 && d.err == nil; n-- {
			rec.Results = append(rec.Results, d.value(true))
		}
		rec.HandlerData = d.bytes()
		r = rec
	case RecOutputIntent:
		r = &OutputIntent{TID: d.str(), NatSeq: d.uv(), Sig: d.str(), OutSeq: d.uv(), HandlerData: d.bytes()}
	case RecLockInterval:
		r = &LockInterval{TID: d.str(), StartTASN: d.uv(), Count: d.uv()}
	case RecClientOp:
		rec := new(ClientOp)
		d.clientOp(rec)
		r = rec
	case RecHeartbeat:
		r = &Heartbeat{Seq: d.uv()}
	case RecHalt:
		r = &Halt{}
	default:
		d.fail(ErrBadRecord, fmt.Sprintf("unknown record type %d", t))
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

func (d *Decoder) clientOp(op *ClientOp) {
	*op = ClientOp{Client: d.uv(), Req: d.uv(), Tenant: d.uv(), Op: d.u8(), Arg: d.sv(), Result: d.sv()}
}

// ClientOp decodes the next record, which must be a ClientOp, into the
// caller's op: the allocation-free Next of a log that holds nothing else. On a
// ClientOp it accepts and rejects exactly what Next does, with the same error
// class at the same offset; a record of any other type is ErrBadRecord.
func (d *Decoder) ClientOp(op *ClientOp) error {
	if t := RecType(d.u8()); d.err == nil && t != RecClientOp {
		d.fail(ErrBadRecord, fmt.Sprintf("record type %d where a clientop must be", t))
	}
	d.clientOp(op)
	return d.err
}

// NativeSpans reads the next record, which must be a NativeResult, and
// returns its Sig and HandlerData as sub-slices of the decoder's input: the
// allocation-free read of a record a Skip walk has already validated, giving
// the Sig and HandlerData that Next would build. A record of any other type
// is ErrBadRecord, and one cut short fails as in Next.
func (d *Decoder) NativeSpans() (sig, handlerData []byte, err error) {
	if t := RecType(d.u8()); d.err == nil && t != RecNativeResult {
		d.fail(ErrBadRecord, fmt.Sprintf("record type %d where a native result must be", t))
	}
	d.span()
	d.uv()
	sig = d.span()
	for n := d.resultCount(); n > 0 && d.err == nil; n-- {
		d.value(false)
	}
	handlerData = d.span()
	return sig, handlerData, d.err
}

// Offset returns how many bytes have been consumed: after a successful Next
// or Skip, the end offset of that record.
func (d *Decoder) Offset() int { return d.pos }

// Skip walks over the next record without building it — no allocation — and
// returns its type. It accepts and rejects exactly what Next does, with the
// same error class (ErrTruncated or plain ErrBadRecord) at the same offset,
// so a payload a Skip walk validated is one Next decodes without error.
func (d *Decoder) Skip() (RecType, error) {
	t := RecType(d.u8())
	if d.err == nil && (t == RecInvalid || t >= NumRecTypes) {
		d.fail(ErrBadRecord, fmt.Sprintf("unknown record type %d", t))
	}
	if d.err != nil {
		return RecInvalid, d.err
	}
	for _, field := range []byte(recTypes[t].layout) {
		switch field {
		case 'b':
			d.u8()
		case 'u', 'v':
			d.uv()
		case 's':
			d.span()
		case 'R':
			for n := d.resultCount(); n > 0 && d.err == nil; n-- {
				d.value(false)
			}
		}
		if d.err != nil {
			return RecInvalid, d.err
		}
	}
	return t, nil
}

// Count walks b and returns how many records it holds, or the error DecodeAll
// would return for it.
func Count(b []byte) (int, error) {
	d, n := Decoder{b: b}, 0
	for d.More() {
		if _, err := d.Skip(); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// DecodeAll decodes every record in b into a slice sized by a counting walk.
func DecodeAll(b []byte) ([]Record, error) {
	n, err := Count(b)
	if err != nil || n == 0 {
		return nil, err
	}
	d, out := Decoder{b: b}, make([]Record, 0, n)
	for d.More() {
		r, err := d.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
