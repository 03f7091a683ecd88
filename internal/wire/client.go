package wire

import (
	"encoding/binary"
	"fmt"
)

// Client protocol framing: the at-most-once request/reply messages the
// serving fleet (internal/fleet) speaks with clients. A client stamps every
// request with its own id and a per-client request sequence number, and
// retries the *same* (Client, Req) until it gets a reply — the server side
// dedups on that pair (the ClientOp records in the replication log), so a
// retry that lands after a failover is answered from the promoted replica's
// replayed log instead of being executed twice.

// Tenant-machine opcodes carried in Request.Op.
const (
	// OpGet reads the tenant's value.
	OpGet uint8 = iota
	// OpAdd adds Arg to the tenant's value and returns the new value.
	OpAdd
	// OpSet overwrites the tenant's value with Arg and returns it.
	OpSet
	opMax
)

// OpKinds returns the number of valid opcodes; Op values must satisfy
// Op < OpKinds(). The load generator draws ops modulo this.
func OpKinds() uint8 { return opMax }

// Request is one client request addressed to a tenant.
type Request struct {
	Client uint64 // client identity (stable across retries)
	Req    uint64 // per-client request sequence number, from 1
	Tenant uint64 // tenant the operation addresses
	Op     uint8  // tenant-machine opcode (OpGet/OpAdd/OpSet)
	Arg    int64
}

// Reply status codes.
const (
	// StatusOK: the operation executed (or was deduplicated) and Value holds
	// its result.
	StatusOK uint8 = iota
	// StatusNotOwner: the receiving replica is not the current primary of
	// the tenant's shard (stale routing, mid-rebalance) — retry after
	// re-consulting the router.
	StatusNotOwner
	// StatusUnavailable: the shard's replica group cannot commit right now
	// (backup being recruited, promotion replay in progress) — retry.
	StatusUnavailable
	// StatusStaleReq: the request's sequence number is older than the
	// client's newest deduplicated request — a protocol violation by the
	// client (it moved on before its previous request was answered).
	StatusStaleReq
	statusMax
)

// StatusName renders a status code for traces.
func StatusName(s uint8) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotOwner:
		return "not-owner"
	case StatusUnavailable:
		return "unavailable"
	case StatusStaleReq:
		return "stale-req"
	default:
		return "invalid"
	}
}

// Reply answers one Request. Epoch is the shard view the answering primary
// served under — clients treat a NotOwner reply's epoch as a hint that their
// routing table is stale.
type Reply struct {
	Client uint64
	Req    uint64
	Status uint8
	Value  int64
	Epoch  uint64
}

// EncodeRequest serialises r.
func EncodeRequest(r *Request) []byte {
	buf := make([]byte, 0, 4*binary.MaxVarintLen64+1)
	buf = binary.AppendUvarint(buf, r.Client)
	buf = binary.AppendUvarint(buf, r.Req)
	buf = binary.AppendUvarint(buf, r.Tenant)
	buf = append(buf, r.Op)
	return binary.AppendVarint(buf, r.Arg)
}

// DecodeRequest parses a Request. Like DecodeFrame, trailing bytes reject
// the message: the fleet's framing is exact, and a spliced or mangled
// request must not be half-understood.
func DecodeRequest(b []byte) (*Request, error) {
	var r Request
	var n int
	if r.Client, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated request client", ErrBadRecord)
	}
	b = b[n:]
	if r.Req, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated request seq", ErrBadRecord)
	}
	b = b[n:]
	if r.Tenant, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated request tenant", ErrBadRecord)
	}
	b = b[n:]
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: truncated request op", ErrBadRecord)
	}
	r.Op = b[0]
	if r.Op >= opMax {
		return nil, fmt.Errorf("%w: bad request op %d", ErrBadRecord, r.Op)
	}
	b = b[1:]
	if r.Arg, n = binary.Varint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated request arg", ErrBadRecord)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: %d trailing bytes after request", ErrBadRecord, len(b)-n)
	}
	return &r, nil
}

// EncodeReply serialises r.
func EncodeReply(r *Reply) []byte {
	buf := make([]byte, 0, 4*binary.MaxVarintLen64+1)
	buf = binary.AppendUvarint(buf, r.Client)
	buf = binary.AppendUvarint(buf, r.Req)
	buf = append(buf, r.Status)
	buf = binary.AppendVarint(buf, r.Value)
	return binary.AppendUvarint(buf, r.Epoch)
}

// DecodeReply parses a Reply; trailing bytes are a framing violation.
func DecodeReply(b []byte) (*Reply, error) {
	var r Reply
	var n int
	if r.Client, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated reply client", ErrBadRecord)
	}
	b = b[n:]
	if r.Req, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated reply seq", ErrBadRecord)
	}
	b = b[n:]
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: truncated reply status", ErrBadRecord)
	}
	r.Status = b[0]
	if r.Status >= statusMax {
		return nil, fmt.Errorf("%w: bad reply status %d", ErrBadRecord, r.Status)
	}
	b = b[1:]
	if r.Value, n = binary.Varint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated reply value", ErrBadRecord)
	}
	b = b[n:]
	if r.Epoch, n = binary.Uvarint(b); n <= 0 {
		return nil, fmt.Errorf("%w: truncated reply epoch", ErrBadRecord)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: %d trailing bytes after reply", ErrBadRecord, len(b)-n)
	}
	return &r, nil
}
