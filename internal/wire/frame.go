package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame is a batch of encoded records shipped primary→backup. AckWanted is
// set on output-commit flushes: the primary blocks until the backup
// acknowledges Seq (the pessimism of §3.4). Epoch is the view number the
// sender believes it is primary of: a receiver in a later view drops the
// frame without acknowledging it, so a deposed primary that missed its own
// failure detection (a healed partition, a slow process) can never satisfy
// an output commit against the new configuration — the split-brain window
// the view service closes.
type Frame struct {
	Seq       uint64
	Epoch     uint64
	AckWanted bool
	Payload   []byte
}

// AppendFrame serialises f onto dst and returns the extended slice. Callers
// that ship many frames reuse dst across calls (append-style, like
// strconv.AppendInt) so the steady-state frame path performs no allocation.
func AppendFrame(dst []byte, f *Frame) []byte {
	var hdr [3*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[:], f.Seq)
	n += binary.PutUvarint(hdr[n:], f.Epoch)
	if f.AckWanted {
		hdr[n] = 1
	} else {
		hdr[n] = 0
	}
	n++
	n += binary.PutUvarint(hdr[n:], uint64(len(f.Payload)))
	dst = append(dst, hdr[:n]...)
	return append(dst, f.Payload...)
}

// EncodeFrame serialises f into a fresh slice.
func EncodeFrame(f *Frame) []byte {
	out := make([]byte, 0, len(f.Payload)+3*binary.MaxVarintLen64+1)
	return AppendFrame(out, f)
}

// DecodeFrame parses a frame produced by EncodeFrame. Trailing bytes after
// the payload are a framing violation (a mangled length or spliced messages)
// and reject the whole frame: a receiver that silently ignored them would
// log a payload whose boundary the sender never chose.
func DecodeFrame(b []byte) (Frame, error) {
	f, rest, err := DecodeFramePrefix(b)
	if err != nil {
		return Frame{}, err
	}
	if len(rest) > 0 {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes after frame payload", ErrBadRecord, len(rest))
	}
	return f, nil
}

// ErrShortFrame reports that the input ends before a complete frame: what is
// there is a prefix of a (possibly) valid frame, and a streaming reader that
// can obtain more bytes should, rather than declaring the stream corrupt. It
// wraps ErrBadRecord, so callers that treat every decode failure as
// corruption — a transport message is always a complete frame — keep their
// behaviour; readers over a byte stream with no message boundaries (the
// .ftlog capture reader) distinguish the two with errors.Is.
var ErrShortFrame = fmt.Errorf("%w: short frame", ErrBadRecord)

// DecodeFramePrefix parses one frame from the front of b and returns the
// remaining bytes, so a message carrying several concatenated frames — the
// consensus backend's AppendEntries batches, where each replicated log entry
// is a Frame (Seq = log index, Epoch = term) — decodes sequentially. The
// strict single-frame DecodeFrame is this plus an empty-rest check.
//
// Errors distinguish truncation from corruption: an input that is a proper
// prefix of a frame (varint cut mid-value, missing flags byte, payload
// shorter than its declared length) fails with ErrShortFrame; an input that
// can never decode no matter how many bytes follow (an overlong varint, an
// out-of-range flags byte) fails with plain ErrBadRecord.
//
// The frame is returned by value and its Payload aliases b: nothing is
// allocated or copied. A message handed out by transport.Endpoint.Recv is the
// caller's alone, so a receiver may keep the payload; a caller that goes on to
// overwrite b must copy it out first.
func DecodeFramePrefix(b []byte) (Frame, []byte, error) {
	d := Decoder{b: b}
	f := Frame{Seq: d.uv(), Epoch: d.uv()}
	flags := d.u8()
	if d.err == nil && flags > 1 {
		d.fail(ErrBadRecord, fmt.Sprintf("bad frame flags %#x", flags))
	}
	f.AckWanted = flags == 1
	f.Payload = d.span()
	if errors.Is(d.err, ErrTruncated) {
		return Frame{}, nil, fmt.Errorf("%w: %d bytes end inside the frame", ErrShortFrame, len(b))
	} else if d.err != nil {
		return Frame{}, nil, d.err
	}
	return f, b[d.pos:], nil
}

// SeqGate validates the frame sequence on the receiving side of the channel.
// Frames are numbered contiguously from 1 by the sender; a receiver behind a
// faulty link can observe duplicates (retransmission, a misbehaving middle
// box) or gaps (lost frames). Duplicates are harmless — the frame was already
// logged and at most needs re-acknowledging — but a gap means log records are
// gone for good, and the only safe reaction is to declare the channel failed
// while the logged prefix is still consistent.
type SeqGate struct {
	last uint64
}

// Admit classifies frame sequence seq: dup means the frame was already
// processed (drop it, re-ack if asked), gap means at least one frame was
// lost before it (the channel is no longer trustworthy). A frame with
// dup == gap == false is the expected next frame and Admit records it.
//
// Sequence zero is never assigned by a sender (numbering starts at 1), so a
// frame carrying it is corrupt, not a duplicate: classifying it as harmless
// would let a mangled header slip past the gate un-acked but also un-flagged.
// It reports as a gap — the channel is no longer trustworthy.
func (g *SeqGate) Admit(seq uint64) (dup, gap bool) {
	switch {
	case seq == 0:
		return false, true
	case seq <= g.last:
		return true, false
	case seq != g.last+1:
		return false, true
	default:
		g.last = seq
		return false, false
	}
}

// Admission is what a log-holding replica must do with one incoming message.
// Every receiver of a sequenced frame stream (the VM pair's backup, cold or
// warm) takes its verdict from AdmitFrame, so the policy is written once; how
// a verdict is counted and reported is the receiver's business.
type Admission uint8

const (
	// Fresh: the expected next frame of the receiver's epoch. Log its payload
	// and acknowledge it if asked.
	Fresh Admission = iota
	// Duplicate: already logged (a retransmission, a misbehaving middle box).
	// Drop the payload, but re-acknowledge if asked, so a sender whose ack was
	// lost is not stranded.
	Duplicate
	// StaleEpoch: sent by a deposed primary still shipping from an older view.
	// Drop it and never acknowledge — an ack would let the stale sender count
	// an output as committed against a configuration that has moved on.
	StaleEpoch
	// FutureEpoch: a primary of a later view exists; this receiver's log is no
	// longer the authoritative one and it must not acknowledge records it
	// cannot place.
	FutureEpoch
	// Gap: at least one frame before it is gone for good. Log records are
	// missing; nothing after this point can be trusted.
	Gap
	// Corrupt: the bytes do not parse as a frame — the channel mangled data in
	// flight; nothing after it can be trusted either.
	Corrupt
)

// AdmitFrame decodes msg and classifies it for a receiver serving in epoch.
// The epoch is checked before the sequence: frames of another epoch belong to
// another numbering and must not disturb this view's dup/gap accounting. The
// frame is zero only for Corrupt; only a Fresh frame advances the gate.
func (g *SeqGate) AdmitFrame(msg []byte, epoch uint64) (Frame, Admission) {
	frame, err := DecodeFrame(msg)
	switch {
	case err != nil:
		return Frame{}, Corrupt
	case frame.Epoch < epoch:
		return frame, StaleEpoch
	case frame.Epoch > epoch:
		return frame, FutureEpoch
	}
	switch dup, gap := g.Admit(frame.Seq); {
	case dup:
		return frame, Duplicate
	case gap:
		return frame, Gap
	}
	return frame, Fresh
}

// AppendAck appends an acknowledgement for frame seq under epoch to dst. The
// ack echoes the receiver's epoch so a primary can discard acknowledgements
// from a configuration it no longer (or does not yet) belong to.
func AppendAck(dst []byte, epoch, seq uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, epoch), seq)
}

// DecodeAck parses an acknowledgement. Trailing bytes reject the ack as
// ErrBadRecord: an ack is exactly two varints, and extra bytes mean the
// channel (or a foreign sender) mangled it — accepting the prefix would let
// a corrupt ack satisfy an output commit.
func DecodeAck(b []byte) (epoch, seq uint64, err error) {
	epoch, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: truncated ack epoch", ErrBadRecord)
	}
	b = b[n:]
	seq, n = binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: truncated ack seq", ErrBadRecord)
	}
	if len(b) != n {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes after ack", ErrBadRecord, len(b)-n)
	}
	return epoch, seq, nil
}
