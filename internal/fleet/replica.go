package fleet

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

type role uint8

const (
	rolePrimary role = iota
	roleBackup
	// roleWitness is the quorum backend's third log holder: it consumes
	// frames exactly like a backup but is never seated by the directory and
	// never promotes directly — at most it converts to roleBackup when the
	// directory reseats the backup chair onto its node.
	roleWitness
)

// peerLink is the primary's shipping state toward one log-holding peer — the
// backup, and under BackendQuorum the witness too. The link speaks record
// high-water marks: each frame's Seq is the absolute index of its first
// record, the peer appends only the tail beyond what it holds, and the ack's
// sequence field carries the records now held — so a retransmission after a
// lost ack advances the link instead of desyncing it, and a lagging peer is
// repaired by one catch-up frame carrying its missing suffix. The peer's log
// is a byte prefix of the primary's, so the link also knows where in the
// primary's log that suffix starts.
type peerLink struct {
	rep  *replica
	recs int // records the peer held at its last ack
	off  int // the byte length of those records: where its suffix starts
}

// dedupEntry is one client's at-most-once state: the highest request id seen
// and its result. The entry is uncommitted — a retry is answered by
// retransmitting the record, never by re-executing it — exactly when it is
// the shard's pending one.
type dedupEntry struct {
	req    uint64
	result int64
}

// replica is one copy of one shard. A primary holds live tenant state and the
// dedup table; a backup or witness holds only the encoded log and
// materialises state exclusively by replay at promotion — the same division
// of labour as the full VM pair, where the backup consumes the log without
// executing until takeover.
type replica struct {
	shard int
	role  role
	epoch uint64

	// Primary side.
	state map[uint64]int64
	dedup map[uint64]dedupEntry
	// links are the shipping channels to the shard's log-holding peers
	// (backup first, then witness; empty while the shard runs degraded).
	links []*peerLink
	// pending flags the shard's head-of-line executed-and-logged-but-
	// uncommitted entry, dedup[pendingClient]. At most one exists: a fresh
	// operation must flush it (retransmit until some peer acks the whole log)
	// before executing, or the shard stalls — so nothing is logged behind it
	// and it is always the log's last record. Without this ordering barrier a
	// peer's log could omit an op whose effect is already baked into later
	// logged results — replay would diverge from the state served.
	pending       bool
	pendingClient uint64
	availableAt   time.Time // promotion replay completes at this instant

	// Both sides: the encoded ClientOp log and its record count. On the
	// primary it is the snapshot shipped to a recruit; on a peer it is the
	// authority the promotion replays.
	log    shardLog
	logged int
}

func newReplica(shard int, epoch uint64, r role) *replica {
	rep := &replica{shard: shard, role: r, epoch: epoch}
	if r == rolePrimary {
		rep.state = make(map[uint64]int64)
		rep.dedup = make(map[uint64]dedupEntry)
	}
	return rep
}

// commitPending marks the head-of-line entry committed: some peer now holds
// the whole log, the entry's record included.
func (r *replica) commitPending() { r.pending = false }

// appendLog encodes op straight onto the primary's log: the one encoding of
// the operation, which replicate then ships as the log's bytes.
func (r *replica) appendLog(op *wire.ClientOp) {
	r.log.appendOp(op)
	r.logged++
}

// adopt gives r a copy of src's log: a recruit's state transfer, or a
// promotion adopting a longer peer log.
func (r *replica) adopt(src *replica) {
	r.log = src.log.clone()
	r.logged = src.logged
}

// committed is the commit rule: some peer holds the whole log (the primary is
// the other copy), or no peer is seated and the shard runs degraded.
func (r *replica) committed() bool {
	for _, ln := range r.links {
		if ln.recs >= r.logged {
			return true
		}
	}
	return len(r.links) == 0
}

// deliver is a peer's receive path, the only one: decode the envelope, gate
// on the epoch — a frame from another configuration is dropped without an
// ack, the silence that starves a deposed primary's output commit — then
// treat frame.Seq as the absolute index of the payload's first record and
// append only the bytes of the records beyond the log's high-water mark. The
// payload is a run of the primary's log bytes, appended as they came, so the
// peer's log stays a byte prefix of it with nothing decoded or re-encoded,
// and a retransmission of records already held (its ack was lost) is
// re-acked, not re-logged. Acks carry the record count now held. A frame
// starting past the high-water mark (compared as a uint64, so no Seq reads as
// a rewind) is a gap a correct primary never produces; it is dropped in
// silence, as is anything the channel mangled — an envelope that does not
// decode, a payload that does not walk as ClientOp records — and the sender
// retransmits or the directory reseats. Returns the ack bytes (nil for
// silence), appended into the fleet's scratch buffer, and whether anything
// was appended to the log.
func (r *replica) deliver(f *Fleet, b []byte) (ack []byte, logged bool) {
	frame, err := wire.DecodeFrame(b)
	if err != nil {
		return nil, false
	}
	if frame.Epoch != r.epoch {
		f.counters.StaleFrames++
		return nil, false
	}
	if frame.Seq > uint64(r.logged) {
		return nil, false
	}
	first := int(frame.Seq)
	n, tail := 0, len(frame.Payload) // records walked; where the first new one starts
	for d := wire.NewDecoder(frame.Payload); d.More(); n++ {
		if first+n == r.logged {
			tail = d.Offset()
		}
		if t, err := d.Skip(); err != nil || t != wire.RecClientOp {
			return nil, false
		}
	}
	appended := first+n > r.logged
	if appended {
		r.log.appendRecords(frame.Payload[tail:])
		r.logged = first + n
	}
	if frame.AckWanted {
		f.ack = wire.AppendAck(f.ack[:0], r.epoch, uint64(r.logged))
		return f.ack, appended
	}
	return nil, appended
}

// promote turns a backup into the shard's primary under epoch: replay the
// whole log through the same apply + dedup path the live primary uses, so
// tenant state and the at-most-once table come back exactly as the old
// primary would have them for every committed operation. Replay tolerates
// duplicate (client, req) records (none arise while a peer appends only past
// its high-water mark, but the guard is the protocol, not the transport).
func (r *replica) promote(epoch uint64) {
	if r.role != roleBackup {
		panic(fmt.Sprintf("fleet: promoting a non-backup replica of shard %d", r.shard))
	}
	r.role = rolePrimary
	r.epoch = epoch
	r.pending = false
	r.links = nil
	r.state = make(map[uint64]int64)
	r.dedup = make(map[uint64]dedupEntry)
	err := r.log.replay(func(_ int, op *wire.ClientOp) error {
		if ent, seen := r.dedup[op.Client]; seen && op.Req <= ent.req {
			return nil // duplicate: the dedup table, not the transport, is the guard
		}
		if got := apply(r.state, op.Tenant, op.Op, op.Arg); got != op.Result {
			panic(fmt.Sprintf("fleet: shard %d replay diverged: (%d,%d) got %d, logged %d",
				r.shard, op.Client, op.Req, got, op.Result))
		}
		// Logged means acked means replicated: committed from the new
		// primary's point of view, which has nothing pending.
		r.dedup[op.Client] = dedupEntry{req: op.Req, result: op.Result}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("fleet: replaying shard %d log: %v", r.shard, err))
	}
}

// apply executes one tenant operation against state and returns the result.
// This single function is the tenant state machine: the live path, promotion
// replay, and the model verifier all run it, so "executed exactly once" is
// checkable by replaying logs through it.
func apply(state map[uint64]int64, tenant uint64, op uint8, arg int64) int64 {
	switch op {
	case wire.OpGet:
		return state[tenant]
	case wire.OpAdd:
		state[tenant] += arg
		return state[tenant]
	case wire.OpSet:
		state[tenant] = arg
		return arg
	default:
		panic(fmt.Sprintf("fleet: unknown op %d", op))
	}
}
