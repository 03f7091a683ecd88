// Package consensus is the second coordination path behind
// replication.CoordinationBackend: a small fixed-membership (default
// 3-replica) Raft-style replicated log that agrees on the same frame stream
// the primary/backup pair ships.
//
// Mapping onto the existing machinery (ROADMAP item 4 / DESIGN.md §11):
//
//   - Each replicated log entry is a wire.Frame: Seq is the log index, Epoch
//     is the term it was proposed in (epoch-as-term — the same field the
//     view service stamps on pair frames), AckWanted marks output-commit
//     batches, and Payload is a batch of encoded records.
//   - Output commit (§3.4's pessimism) is majority commit: a Ship with the
//     commit flag blocks until a majority of replicas hold the entry and the
//     leader has committed it in its own term.
//   - Leader election runs entirely on the injected clock.Clock with
//     per-replica seeded randomized timeouts, so the whole cluster is
//     deterministic under internal/simtest's virtual clock.
//   - A freshly elected leader appends an empty barrier entry in its own
//     term (Raft's no-op): committing it commits every surviving entry from
//     older terms, which is what makes the committed record stream a safe
//     recovery log after a leader kill (the trailing uncertain OutputIntent
//     analysis in internal/replication applies unchanged).
//
// The package deliberately omits what the harness does not drive: no
// persistence (replicas are fail-stop, like the paper's pair), no snapshot
// compaction, no dynamic membership.
package consensus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	frand "repro/internal/fuzzgen/rand"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Role is a replica's current protocol role.
type Role int

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "invalid"
	}
}

// Errors surfaced by Propose/WaitCommit. The Backend wraps them in
// replication.ErrBackupLost so the primary's degrade/abort policy applies
// uniformly.
var (
	// ErrNotLeader: this replica cannot accept proposals.
	ErrNotLeader = errors.New("consensus: not the leader")
	// ErrLeadershipLost: the proposing term ended before the entry committed;
	// whether it survives is the next leader's decision, so the proposer must
	// treat the output as uncommitted.
	ErrLeadershipLost = errors.New("consensus: leadership lost before commit")
	// ErrCommitTimeout: the commit wait exceeded its bound (quorum silent).
	ErrCommitTimeout = errors.New("consensus: commit wait timed out")
	// ErrStopped: the replica was killed.
	ErrStopped = errors.New("consensus: replica stopped")
)

// Config configures a cluster.
type Config struct {
	// Replicas is the cluster size (default 3; must be odd and >= 1).
	Replicas int
	// Seed drives every replica's randomized election timeouts (default 1).
	Seed uint64
	// Clock supplies all timing (nil = wall clock). Under a virtual clock
	// the whole cluster is deterministic.
	Clock clock.Clock
	// ElectionMin/ElectionMax bound the randomized election timeout
	// (defaults 15ms/30ms — in-process transports are microseconds, so the
	// window only pays once at startup).
	ElectionMin, ElectionMax time.Duration
	// Heartbeat is the leader's AppendEntries keepalive period (default 5ms).
	Heartbeat time.Duration
	// Link, when set, supplies the transport between replicas i < j (the
	// simulation harness injects seeded simnet links here); the first
	// endpoint is i's, the second j's. Nil = transport.PipeClock on Clock.
	Link func(i, j int) (transport.Endpoint, transport.Endpoint)
}

func (c *Config) fill() {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ElectionMin == 0 {
		c.ElectionMin = 15 * time.Millisecond
	}
	if c.ElectionMax <= c.ElectionMin {
		c.ElectionMax = 2 * c.ElectionMin
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 5 * time.Millisecond
	}
}

// entry is one replicated log slot.
type entry struct {
	term      uint64
	ackWanted bool
	payload   []byte
}

// Message kinds (first byte of every inter-replica message).
const (
	msgVote       = 1 // term, candidate, lastIndex, lastTerm
	msgVoteResp   = 2 // term, voter, granted
	msgAppend     = 3 // term, leader, prevIndex, prevTerm, commit, n, frames…
	msgAppendResp = 4 // term, follower, granted(success), hint(match)
)

// message is a decoded inter-replica message. For msgAppend, entries holds
// the batch and a/b/c are prevIndex/prevTerm/leaderCommit; for msgVote, a/b
// are lastIndex/lastTerm; for responses, ok is granted/success and a is the
// voter's id echo or the follower's match hint.
type message struct {
	kind    uint8
	term    uint64
	from    int
	a, b, c uint64
	ok      bool
	entries []entry
	// firstIndex is the absolute index of entries[0] (msgAppend; sanity
	// cross-check against a = prevIndex).
	firstIndex uint64
}

func appendUv(b []byte, vs ...uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vs {
		b = append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	return b
}

func readUv(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("truncated varint")
	}
	return v, b[n:], nil
}

func encodeVote(term uint64, candidate int, lastIndex, lastTerm uint64) []byte {
	return appendUv([]byte{msgVote}, term, uint64(candidate), lastIndex, lastTerm)
}

func encodeVoteResp(term uint64, voter int, granted bool) []byte {
	g := uint64(0)
	if granted {
		g = 1
	}
	return appendUv([]byte{msgVoteResp}, term, uint64(voter), g)
}

func encodeAppendResp(term uint64, follower int, success bool, match uint64) []byte {
	s := uint64(0)
	if success {
		s = 1
	}
	return appendUv([]byte{msgAppendResp}, term, uint64(follower), s, match)
}

// encodeAppend serialises an AppendEntries batch; each entry rides as a
// wire.Frame with Seq = absolute log index and Epoch = entry term.
func encodeAppend(term uint64, leader int, prevIndex, prevTerm, commit uint64, firstIndex uint64, entries []entry) []byte {
	b := appendUv([]byte{msgAppend}, term, uint64(leader), prevIndex, prevTerm, commit, uint64(len(entries)))
	for i, e := range entries {
		b = wire.AppendFrame(b, &wire.Frame{
			Seq:       firstIndex + uint64(i),
			Epoch:     e.term,
			AckWanted: e.ackWanted,
			Payload:   e.payload,
		})
	}
	return b
}

// decodeMessage parses one inter-replica message. Malformed messages return
// an error and are dropped by the caller (counted, never acted on — a
// consensus replica must not let a mangled message move its state).
func decodeMessage(raw []byte) (*message, error) {
	if len(raw) == 0 {
		return nil, errors.New("empty message")
	}
	m := &message{kind: raw[0]}
	b := raw[1:]
	var err error
	next := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, b, err = readUv(b)
		return v
	}
	switch m.kind {
	case msgVote:
		m.term = next()
		m.from = int(next())
		m.a = next()
		m.b = next()
	case msgVoteResp:
		m.term = next()
		m.from = int(next())
		m.ok = next() == 1
	case msgAppendResp:
		m.term = next()
		m.from = int(next())
		m.ok = next() == 1
		m.a = next()
	case msgAppend:
		m.term = next()
		m.from = int(next())
		m.a = next() // prevIndex
		m.b = next() // prevTerm
		m.c = next() // leaderCommit
		n := next()
		if err != nil {
			return nil, err
		}
		if n > 1<<16 {
			return nil, errors.New("implausible entry count")
		}
		m.entries = make([]entry, 0, n)
		for i := uint64(0); i < n; i++ {
			f, rest, ferr := wire.DecodeFramePrefix(b)
			if ferr != nil {
				return nil, ferr
			}
			if i == 0 {
				m.firstIndex = f.Seq
			} else if f.Seq != m.firstIndex+i {
				return nil, errors.New("non-contiguous entry batch")
			}
			m.entries = append(m.entries, entry{term: f.Epoch, ackWanted: f.AckWanted, payload: f.Payload})
			b = rest
		}
		if m.firstIndex != 0 && m.firstIndex != m.a+1 {
			return nil, errors.New("entry batch does not follow prevIndex")
		}
		if len(b) != 0 {
			return nil, fmt.Errorf("%d trailing bytes after entry batch", len(b))
		}
		return m, err
	default:
		return nil, fmt.Errorf("unknown message kind %d", m.kind)
	}
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after message", len(b))
	}
	return m, nil
}

// StaleProbe returns an encoded AppendEntries carrying term 0 — guaranteed
// stale against any live cluster (terms start at 1). Harnesses inject it via
// Replica.Inject to drive the stale-term rejection path from outside the
// protocol, standing in for a straggler from before a leadership change.
func StaleProbe(from int) []byte {
	return encodeAppend(0, from, 0, 0, 0, 1, nil)
}

// electionRNG derives the per-replica timeout stream: replicas fork from the
// shared seed so one Config.Seed pins the whole cluster's election schedule.
//
// The per-replica state must come from a MIXED output of the master stream,
// never from arithmetic on the seed: SplitMix64 is a Weyl sequence, so two
// states that differ by a multiple of the golden increment emit the same
// stream at a lag. (seed ^ (id+1)*golden did exactly that — survivors of a
// leader kill whose draw counts happened to be offset by the lag drew
// identical timeouts forever, a permanent split-vote livelock.)
func electionRNG(seed uint64, id int) *frand.RNG {
	master := frand.New(seed)
	var s uint64
	for i := 0; i <= id; i++ {
		s = master.Next()
	}
	return frand.New(s)
}
