package consensus

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	frand "repro/internal/fuzzgen/rand"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
)

// maxBatch caps entries per AppendEntries message so one catch-up cannot
// produce an unbounded frame; the remainder rides the next round trip.
const maxBatch = 64

// Stats is a snapshot of one replica's protocol counters.
type Stats struct {
	ID          int
	Role        Role
	Term        uint64
	LogLen      int
	CommitIndex uint64
	Elections   uint64 // campaigns started
	Wins        uint64 // elections won
	StaleTerms  uint64 // messages rejected for carrying an older term
	Malformed   uint64 // messages dropped as undecodable
}

// Replica is one member of the replicated log. All protocol state lives
// behind mu and is mutated only by the main actor loop (run) plus the two
// entry points Propose and Inject; per-peer receiver goroutines merely queue
// raw messages into the inbox and signal the loop.
type Replica struct {
	id  int
	n   int
	clk clock.Clock
	rng *frand.RNG

	// peers[j] is the endpoint to replica j (nil at j == id).
	peers []transport.Endpoint

	mu          sync.Mutex
	term        uint64
	votedFor    int // -1 = none this term
	role        Role
	leaderID    int // last known leader, -1 = unknown
	log         []entry
	commitIndex uint64
	// Leader-only volatile state.
	nextIndex  []uint64
	matchIndex []uint64
	// sentUpTo[j]: highest index already transmitted to j since the last
	// response or heartbeat tick; gates signal-driven re-sends so an
	// unresponsive peer is retried on the heartbeat timer, not on every wake.
	sentUpTo []uint64
	votes    []bool

	electionDeadline  time.Time
	heartbeatDeadline time.Time

	inbox         [][]byte
	commitWaiters []clock.WaitSlot
	stats         Stats

	slot    clock.WaitSlot
	stopped atomic.Bool
	done    *clock.Flag
}

type outMsg struct {
	to  int
	msg []byte
}

func newReplica(id int, cfg *Config, clk clock.Clock) *Replica {
	r := &Replica{
		id:       id,
		n:        replicas,
		clk:      clk,
		rng:      electionRNG(cfg.Seed, id),
		peers:    make([]transport.Endpoint, replicas),
		votedFor: -1,
		leaderID: -1,
		slot:     clk.NewWaitSlot(),
		done:     clock.NewFlag(clk),
	}
	r.stats.ID = id
	return r
}

// ID returns the replica's cluster index.
func (r *Replica) ID() int { return r.id }

// Term returns the replica's current term.
func (r *Replica) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// Snapshot returns the replica's protocol counters.
func (r *Replica) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Role = r.role
	s.Term = r.term
	s.LogLen = len(r.log)
	s.CommitIndex = r.commitIndex
	return s
}

// Ready reports whether this replica is a leader that has committed an entry
// of its own term (the post-election barrier): only then is its committed
// prefix guaranteed to include every survivable older-term entry.
func (r *Replica) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.readyLocked()
}

func (r *Replica) readyLocked() bool {
	if r.role != Leader || r.commitIndex == 0 {
		return false
	}
	return r.log[r.commitIndex-1].term == r.term
}

// Stop kills the replica: fail-stop, like machine.Kill. Only atomics, the
// lock, and slot signals — safe to call from any actor (but not from inside
// a simnet send hook; use an atomic flag plus a poller there, as the sweep
// harness does).
func (r *Replica) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	r.mu.Lock()
	r.notifyCommitWaitersLocked()
	r.mu.Unlock()
	r.slot.Signal()
}

// Stopped reports whether the replica was killed (or finished shutting down).
func (r *Replica) Stopped() bool { return r.stopped.Load() }

// Inject queues a raw pre-encoded message directly into the replica's inbox,
// bypassing the transport — the harness uses it to probe stale-term and
// malformed-frame handling without standing up a rogue replica.
func (r *Replica) Inject(msg []byte) {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	r.mu.Lock()
	r.inbox = append(r.inbox, cp)
	r.mu.Unlock()
	r.slot.Signal()
}

// Propose appends payload to the leader's log and wakes replication. It
// returns the entry's (index, term) claim ticket for WaitCommit. The payload
// is copied. ackWanted is recorded in the entry (and travels in the frame's
// AckWanted bit) so a replayer can see which batches were output commits.
func (r *Replica) Propose(payload []byte, ackWanted bool) (index, term uint64, err error) {
	if r.stopped.Load() {
		return 0, 0, ErrStopped
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != Leader {
		return 0, 0, fmt.Errorf("%w (replica %d is %s in term %d)", ErrNotLeader, r.id, r.role, r.term)
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	r.log = append(r.log, entry{term: r.term, ackWanted: ackWanted, payload: cp})
	index, term = uint64(len(r.log)), r.term
	r.advanceCommitLocked() // single-replica cluster commits immediately
	r.slot.Signal()
	return index, term, nil
}

// WaitCommit blocks until the entry at (index, term) is committed on this
// replica, or fails: ErrLeadershipLost if the term moved on before commit
// (the entry may or may not survive — the proposer must assume not),
// ErrCommitTimeout if timeout > 0 elapses, ErrStopped on kill.
func (r *Replica) WaitCommit(index, term uint64, timeout time.Duration) error {
	// A fresh slot per wait, not a reused one: commits signal every waiter
	// without unregistering it, so a slot can leave here with one latched.
	slot := r.clk.NewWaitSlot()
	r.mu.Lock()
	r.commitWaiters = append(r.commitWaiters, slot)
	r.mu.Unlock()
	defer r.dropWaiter(slot)

	var deadline time.Time
	if timeout > 0 {
		deadline = r.clk.Now().Add(timeout)
	}
	for {
		r.mu.Lock()
		if r.commitIndex >= index {
			ok := uint64(len(r.log)) >= index && r.log[index-1].term == term
			r.mu.Unlock()
			if !ok {
				return fmt.Errorf("%w (entry %d/%d overwritten)", ErrLeadershipLost, index, term)
			}
			return nil
		}
		if r.stopped.Load() {
			r.mu.Unlock()
			return ErrStopped
		}
		if r.role != Leader || r.term != term {
			role, cur := r.role, r.term
			r.mu.Unlock()
			return fmt.Errorf("%w (now %s in term %d)", ErrLeadershipLost, role, cur)
		}
		r.mu.Unlock()

		park := time.Duration(0) // forever
		if timeout > 0 {
			park = deadline.Sub(r.clk.Now())
			if park <= 0 {
				return fmt.Errorf("%w (entry %d/%d after %v)", ErrCommitTimeout, index, term, timeout)
			}
		}
		if timedOut := slot.Park(park); timedOut {
			return fmt.Errorf("%w (entry %d/%d after %v)", ErrCommitTimeout, index, term, timeout)
		}
	}
}

func (r *Replica) dropWaiter(slot clock.WaitSlot) {
	r.mu.Lock()
	for i, w := range r.commitWaiters {
		if w == slot {
			r.commitWaiters = append(r.commitWaiters[:i], r.commitWaiters[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

func (r *Replica) notifyCommitWaitersLocked() {
	for _, w := range r.commitWaiters {
		w.Signal()
	}
}

// start spawns the replica's actors: one receiver per peer link plus the
// main protocol loop.
func (r *Replica) start() {
	for j, ep := range r.peers {
		if ep == nil {
			continue
		}
		ep := ep
		r.clk.Go(func() { r.receive(ep) })
		_ = j
	}
	r.clk.Go(r.run)
}

// receive pumps one peer link into the inbox. A dead replica stops reading
// (fail-stop: the process is gone, nobody drains its sockets).
func (r *Replica) receive(ep transport.Endpoint) {
	for {
		msg, err := ep.Recv(0)
		if err != nil {
			return
		}
		if r.stopped.Load() {
			return
		}
		r.mu.Lock()
		r.inbox = append(r.inbox, msg)
		r.mu.Unlock()
		r.slot.Signal()
	}
}

// Done blocks until the main loop has exited (endpoints closed).
func (r *Replica) Done() { r.done.Wait() }

// run is the main protocol actor: single-threaded over all state, woken by
// inbox signals, proposals, and its own election/heartbeat deadlines.
func (r *Replica) run() {
	defer r.done.Set()
	r.mu.Lock()
	r.resetElectionDeadlineLocked(r.clk.Now())
	r.mu.Unlock()
	for {
		if r.stopped.Load() {
			r.shutdown()
			return
		}
		now := r.clk.Now()
		r.mu.Lock()
		var out []outMsg
		// Deadlines first: an expired election timer runs a campaign; an
		// expired heartbeat tick retransmits to every peer (empty when caught
		// up, the pending suffix when not).
		if r.role == Leader {
			if !now.Before(r.heartbeatDeadline) {
				for j := range r.peers {
					if j == r.id {
						continue
					}
					r.sentUpTo[j] = r.nextIndex[j] - 1 // force retransmit
					if m := r.appendMsgLocked(j, true); m != nil {
						out = append(out, outMsg{to: j, msg: m})
					}
				}
				r.heartbeatDeadline = now.Add(heartbeatEvery)
			}
		} else if !now.Before(r.electionDeadline) {
			out = append(out, r.campaignLocked(now)...)
		}
		// Drain and handle the inbox.
		msgs := r.inbox
		r.inbox = nil
		for _, raw := range msgs {
			out = append(out, r.handleLocked(now, raw)...)
		}
		// A leader with fresh proposals pushes them without waiting for the
		// tick; sentUpTo keeps this from re-spamming unresponsive peers.
		if r.role == Leader {
			for j := range r.peers {
				if j == r.id {
					continue
				}
				if m := r.appendMsgLocked(j, false); m != nil {
					out = append(out, outMsg{to: j, msg: m})
				}
			}
		}
		var deadline time.Time
		if r.role == Leader {
			deadline = r.heartbeatDeadline
		} else {
			deadline = r.electionDeadline
		}
		r.mu.Unlock()

		for _, o := range out {
			if ep := r.peers[o.to]; ep != nil {
				_ = ep.Send(o.msg) // dead links surface via timeouts, not errors
			}
		}

		park := deadline.Sub(r.clk.Now())
		if park <= 0 {
			continue // deadline already due; Park(<=0) would mean forever
		}
		r.slot.Park(park)
	}
}

// shutdown closes the replica's endpoints from its own actor (never from a
// hook or a foreign goroutine: simnet endpoint close takes the link lock).
func (r *Replica) shutdown() {
	for _, ep := range r.peers {
		if ep != nil {
			_ = ep.Close()
		}
	}
	r.mu.Lock()
	r.notifyCommitWaitersLocked()
	r.mu.Unlock()
}

func (r *Replica) resetElectionDeadlineLocked(now time.Time) {
	span := uint64(electionMax - electionMin)
	d := electionMin + time.Duration(r.rng.Next()%span)
	r.electionDeadline = now.Add(d)
}

// campaignLocked starts an election: bump term, vote for self, solicit votes.
func (r *Replica) campaignLocked(now time.Time) []outMsg {
	r.term++
	r.role = Candidate
	r.votedFor = r.id
	r.leaderID = -1
	r.votes = make([]bool, r.n)
	r.votes[r.id] = true
	r.stats.Elections++
	r.resetElectionDeadlineLocked(now)
	if r.n == 1 {
		return r.winLocked(now)
	}
	lastIndex := uint64(len(r.log))
	var lastTerm uint64
	if lastIndex > 0 {
		lastTerm = r.log[lastIndex-1].term
	}
	var out []outMsg
	for j := range r.peers {
		if j == r.id {
			continue
		}
		out = append(out, outMsg{to: j, msg: encodeVote(r.term, r.id, lastIndex, lastTerm)})
	}
	return out
}

// winLocked transitions candidate → leader: init follower cursors, append
// the empty barrier entry in the new term, and push it everywhere at once.
func (r *Replica) winLocked(now time.Time) []outMsg {
	r.role = Leader
	r.leaderID = r.id
	r.stats.Wins++
	r.nextIndex = make([]uint64, r.n)
	r.matchIndex = make([]uint64, r.n)
	r.sentUpTo = make([]uint64, r.n)
	for j := range r.nextIndex {
		r.nextIndex[j] = uint64(len(r.log)) + 1
		r.sentUpTo[j] = uint64(len(r.log))
	}
	// Barrier: committing it (majority, own term) commits the whole prefix.
	r.log = append(r.log, entry{term: r.term})
	r.heartbeatDeadline = now.Add(heartbeatEvery)
	r.advanceCommitLocked() // n == 1
	var out []outMsg
	for j := range r.peers {
		if j == r.id {
			continue
		}
		if m := r.appendMsgLocked(j, true); m != nil {
			out = append(out, outMsg{to: j, msg: m})
		}
	}
	return out
}

// stepDownLocked adopts a newer term as follower. It deliberately does NOT
// reset the election deadline: only granting a vote, accepting appends from
// the leader, or starting a campaign may do that. Resetting here livelocks
// elections — a candidate with a stale log can never win, yet its term bumps
// would forever push back the timer of the up-to-date replica that could.
func (r *Replica) stepDownLocked(term uint64, _ time.Time) {
	r.term = term
	r.role = Follower
	r.votedFor = -1
	r.leaderID = -1
	r.nextIndex, r.matchIndex, r.sentUpTo, r.votes = nil, nil, nil, nil
	// A deposed leader's in-flight output commits must fail, not hang.
	r.notifyCommitWaitersLocked()
}

// appendMsgLocked builds the next AppendEntries for peer j, or nil if there
// is nothing new and force is unset. force sends even an empty heartbeat.
func (r *Replica) appendMsgLocked(j int, force bool) []byte {
	last := uint64(len(r.log))
	if !force && last <= r.sentUpTo[j] {
		return nil
	}
	prev := r.nextIndex[j] - 1
	end := last
	if end > prev+maxBatch {
		end = prev + maxBatch
	}
	var prevTerm uint64
	if prev > 0 {
		prevTerm = r.log[prev-1].term
	}
	// The whole unacknowledged window prev+1..end rides each message (capped
	// by maxBatch); duplicates are idempotent on the follower.
	ents := r.log[prev:end]
	r.sentUpTo[j] = end
	return encodeAppend(r.term, r.id, prev, prevTerm, r.commitIndex, prev+1, ents)
}

// advanceCommitLocked recomputes the leader's commit index: the largest N
// replicated on a majority with log[N].term == currentTerm (§5.4.2's
// own-term-only rule — older-term entries commit transitively).
func (r *Replica) advanceCommitLocked() {
	if r.role != Leader {
		return
	}
	last := uint64(len(r.log))
	for n := last; n > r.commitIndex; n-- {
		if r.log[n-1].term != r.term {
			break // older-term entry: only commits via a newer one
		}
		count := 1 // self
		for j := range r.peers {
			if j != r.id && r.matchIndex != nil && r.matchIndex[j] >= n {
				count++
			}
		}
		if count > r.n/2 {
			r.commitIndex = n
			r.notifyCommitWaitersLocked()
			break
		}
	}
}

// handleLocked processes one raw inbox message and returns replies to send.
func (r *Replica) handleLocked(now time.Time, raw []byte) []outMsg {
	m, err := decodeMessage(raw)
	if err != nil {
		r.stats.Malformed++
		return nil
	}
	if m.from < 0 || m.from >= r.n || m.from == r.id {
		r.stats.Malformed++
		return nil
	}
	// Universal term rules: newer term → step down first; the per-kind
	// handlers below then run in the updated state.
	if m.term > r.term {
		r.stepDownLocked(m.term, now)
	}
	switch m.kind {
	case msgVote:
		return r.handleVoteLocked(now, m)
	case msgVoteResp:
		return r.handleVoteRespLocked(now, m)
	case msgAppend:
		return r.handleAppendLocked(now, m)
	case msgAppendResp:
		return r.handleAppendRespLocked(m)
	}
	return nil
}

func (r *Replica) handleVoteLocked(now time.Time, m *message) []outMsg {
	if m.term < r.term {
		r.stats.StaleTerms++
		return []outMsg{{to: m.from, msg: encodeVoteResp(r.term, r.id, false)}}
	}
	// m.term == r.term here (newer terms already adopted above).
	lastIndex := uint64(len(r.log))
	var lastTerm uint64
	if lastIndex > 0 {
		lastTerm = r.log[lastIndex-1].term
	}
	upToDate := m.b > lastTerm || (m.b == lastTerm && m.a >= lastIndex)
	grant := (r.votedFor == -1 || r.votedFor == m.from) && upToDate && r.role == Follower
	if grant {
		r.votedFor = m.from
		r.resetElectionDeadlineLocked(now)
	}
	return []outMsg{{to: m.from, msg: encodeVoteResp(r.term, r.id, grant)}}
}

func (r *Replica) handleVoteRespLocked(now time.Time, m *message) []outMsg {
	if r.role != Candidate || m.term != r.term || !m.ok {
		if m.term < r.term {
			r.stats.StaleTerms++
		}
		return nil
	}
	r.votes[m.from] = true
	count := 0
	for _, v := range r.votes {
		if v {
			count++
		}
	}
	if count > r.n/2 {
		return r.winLocked(now) // initial barrier broadcast
	}
	return nil
}

func (r *Replica) handleAppendLocked(now time.Time, m *message) []outMsg {
	if m.term < r.term {
		r.stats.StaleTerms++
		return []outMsg{{to: m.from, msg: encodeAppendResp(r.term, r.id, false, 0)}}
	}
	// Same term: a candidate yields to the established leader.
	if r.role != Follower {
		r.role = Follower
		r.votes = nil
		r.nextIndex, r.matchIndex, r.sentUpTo = nil, nil, nil
	}
	r.leaderID = m.from
	r.resetElectionDeadlineLocked(now)

	prev, prevTerm, leaderCommit := m.a, m.b, m.c
	last := uint64(len(r.log))
	if prev > last {
		// Missing the prefix entirely: hint our last index so the leader
		// jumps nextIndex straight there.
		return []outMsg{{to: m.from, msg: encodeAppendResp(r.term, r.id, false, last)}}
	}
	if prev > 0 && r.log[prev-1].term != prevTerm {
		// Conflicting entry at prev: drop it and everything after.
		r.log = r.log[:prev-1]
		return []outMsg{{to: m.from, msg: encodeAppendResp(r.term, r.id, false, prev-1)}}
	}
	// Append, overwriting divergent suffixes.
	for i, e := range m.entries {
		idx := prev + uint64(i) + 1
		if idx <= uint64(len(r.log)) {
			if r.log[idx-1].term == e.term {
				continue // already have it
			}
			r.log = r.log[:idx-1]
		}
		r.log = append(r.log, e)
	}
	match := prev + uint64(len(m.entries))
	if leaderCommit > r.commitIndex {
		ci := leaderCommit
		if ci > match {
			ci = match
		}
		if ci > r.commitIndex {
			r.commitIndex = ci
			r.notifyCommitWaitersLocked()
		}
	}
	return []outMsg{{to: m.from, msg: encodeAppendResp(r.term, r.id, true, match)}}
}

func (r *Replica) handleAppendRespLocked(m *message) []outMsg {
	if r.role != Leader || m.term != r.term {
		if m.term < r.term {
			r.stats.StaleTerms++
		}
		return nil
	}
	j := m.from
	if m.ok {
		if m.a > r.matchIndex[j] {
			r.matchIndex[j] = m.a
		}
		if m.a+1 > r.nextIndex[j] {
			r.nextIndex[j] = m.a + 1
		}
		if r.sentUpTo[j] < r.matchIndex[j] {
			r.sentUpTo[j] = r.matchIndex[j]
		}
		r.advanceCommitLocked()
		// More to stream? The post-handle pass in run() sends it.
		return nil
	}
	// Rejected: backtrack to the follower's hint and resend immediately.
	ni := m.a + 1
	if ni < 1 {
		ni = 1
	}
	if ni < r.nextIndex[j] {
		r.nextIndex[j] = ni
	}
	r.sentUpTo[j] = r.nextIndex[j] - 1
	if msg := r.appendMsgLocked(j, true); msg != nil {
		return []outMsg{{to: j, msg: msg}}
	}
	return nil
}
