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
// repaired by one catch-up frame carrying its missing suffix.
type peerLink struct {
	rep  *replica
	recs int // records the peer held at its last ack
}

// dedupEntry is one client's at-most-once state: the highest request id seen,
// its result, and whether the output-commit completed (the backup acked the
// logged record). An uncommitted entry answers a retry by retransmitting the
// record, never by re-executing it.
type dedupEntry struct {
	req       uint64
	result    int64
	committed bool
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
	// recOffsets[i] is record i's byte offset in log, kept so a link's
	// un-acked suffix is cut from the log instead of being encoded a second
	// time.
	recOffsets []int
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

	// Both sides: the encoded ClientOp log. On the primary it is the
	// snapshot shipped to a recruit; on a peer it is the authority the
	// promotion replays.
	log    []byte
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
func (r *replica) commitPending() {
	ent := r.dedup[r.pendingClient]
	ent.committed = true
	r.dedup[r.pendingClient] = ent
	r.pending = false
}

// appendLog encodes op straight onto the primary's log: the one encoding of
// the operation, which replicate then ships as a slice of the log.
func (r *replica) appendLog(op *wire.ClientOp) {
	r.recOffsets = append(r.recOffsets, len(r.log))
	r.log = wire.AppendClientOp(r.log, op)
	r.logged++
}

// replayLog is the one walk over an encoded shard log — promotion and Audit
// both run apply from its visit: each record is decoded into a single
// reused ClientOp and visited with its index and byte offset. A record that
// does not decode as a ClientOp, or a visit's error, ends the walk.
func replayLog(log []byte, visit func(i, off int, op *wire.ClientOp) error) error {
	var op wire.ClientOp
	d := wire.NewDecoder(log)
	for i := 0; d.More(); i++ {
		off := d.Offset()
		if err := d.ClientOp(&op); err != nil {
			return err
		}
		if err := visit(i, off, &op); err != nil {
			return err
		}
	}
	return nil
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

// suffixFrom returns the encoded records from index rec onward: what a link
// whose peer last acked holding rec records is missing.
func (r *replica) suffixFrom(rec int) []byte {
	if rec >= r.logged {
		return nil
	}
	return r.log[r.recOffsets[rec]:]
}

// deliver is a peer's receive path, the only one: decode the envelope, gate
// on the epoch — a frame from another configuration is dropped without an
// ack, the silence that starves a deposed primary's output commit — then
// treat frame.Seq as the absolute index of the payload's first record and
// append only the bytes of the records beyond the log's high-water mark. The
// payload is a slice of the primary's log, so the peer's stays a byte prefix
// of it with nothing decoded or re-encoded, and a retransmission of records
// already held (its ack was lost) is re-acked, not re-logged. Acks carry the
// record count now held. A frame starting past the high-water mark is a gap a
// correct primary never produces; it is dropped in silence, as is anything
// the channel mangled — an envelope that does not decode, a payload that does
// not walk as ClientOp records — and the sender retransmits or the directory
// reseats. Returns the ack bytes (nil for silence), appended into the fleet's
// scratch buffer, and whether anything was appended to the log.
func (r *replica) deliver(f *Fleet, b []byte) (ack []byte, logged bool) {
	frame, err := wire.DecodeFrame(b)
	if err != nil {
		return nil, false
	}
	if frame.Epoch != r.epoch {
		f.counters.StaleFrames++
		return nil, false
	}
	first := int(frame.Seq)
	if first > r.logged {
		return nil, false
	}
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
		r.log = append(r.log, frame.Payload[tail:]...)
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
	r.recOffsets = r.recOffsets[:0] // a backup's log has none; a primary ships by them
	err := replayLog(r.log, func(_, off int, op *wire.ClientOp) error {
		r.recOffsets = append(r.recOffsets, off)
		if ent, seen := r.dedup[op.Client]; seen && op.Req <= ent.req {
			return nil // duplicate: the dedup table, not the transport, is the guard
		}
		if got := apply(r.state, op.Tenant, op.Op, op.Arg); got != op.Result {
			panic(fmt.Sprintf("fleet: shard %d replay diverged: (%d,%d) got %d, logged %d",
				r.shard, op.Client, op.Req, got, op.Result))
		}
		// Logged means acked means replicated: committed from the new
		// primary's point of view.
		r.dedup[op.Client] = dedupEntry{req: op.Req, result: op.Result, committed: true}
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
