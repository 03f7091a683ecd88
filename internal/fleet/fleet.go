// Package fleet scales the single replicated-VM pair out to a sharded,
// multi-tenant serving fleet with an at-most-once client protocol.
//
// Tenants are lightweight deterministic state machines (an int64 accumulator
// per tenant: get/add/set), partitioned across shards by tenant id. Every
// shard is a primary and its log-holding peers — the backup a
// viewsvc.ShardDirectory seats and, under BackendQuorum, a fleet-managed
// witness — and replicates the way the full VM pair does: the primary encodes
// each executed operation as a wire.ClientOp record onto its log, ships the
// log's un-acked tail in a real wire.Frame (epoch-stamped, ack-wanted) down
// each peer's link, and counts the operation committed — eligible to answer
// the client — only once some peer's ack, under the current epoch, says it
// holds the whole log. A peer keeps the encoded log without applying it;
// promotion replays the log to rebuild both the tenant state and the dedup
// table, so at-most-once survives failover for free: a client retrying across
// a primary kill hits the dedup entry the replay reconstructed and receives
// the original result without re-execution.
//
// There is one link protocol (DESIGN.md §10). A frame's sequence field is the
// log index of its first record and an ack's is the number of records the peer
// now holds, so a peer appends only what lies past its high-water mark: a
// dropped frame is repaired by the retry, a dropped ack's retransmission is
// re-acked and not re-logged, and the log never holds two copies of one
// (client, req) — though replay still guards against duplicates, because the
// guard is the same dedup check the live path uses. With one link an
// uncommitted operation blocks the shard until its ack returns: the pair's
// stop-and-wait is the one-link case, not a second protocol. Config.Backend
// decides how many peers a shard seats and nothing about how bytes move.
//
// Everything is clock-injected; under a virtual clock a whole fleet run —
// including node kills, promotions, recruitment state transfer, and the
// load generator in fleet/loadgen — is a pure function of (config, seed).
package fleet

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/simtest/clock"
	"repro/internal/viewsvc"
	"repro/internal/wire"
)

// Fault kinds injected on the replication hop. Faults strike every
// Config.FaultEvery-th replication attempt, deterministically.
const (
	FaultNone      = "none"
	FaultFrameDrop = "framedrop" // frame lost: backup never logs, primary times out
	FaultAckDrop   = "ackdrop"   // backup logs, ack lost: primary times out uncommitted
	FaultReplyDrop = "replydrop" // committed, but the reply to the client is lost
)

// FaultKinds lists every valid Config.Fault value.
var FaultKinds = []string{FaultNone, FaultFrameDrop, FaultAckDrop, FaultReplyDrop}

// Coordination backends selectable per fleet (Config.Backend): how many
// log-holding peers a shard seats. The client protocol, the link protocol,
// the commit rule (some peer holds the whole log) and the verifier are the
// same over either.
const (
	// BackendPair is the paper's pair per shard: one peer, the backup, so
	// commit = its ack.
	BackendPair = "pair"
	// BackendQuorum seats a second peer per shard, a fleet-managed witness, so
	// an operation commits once the primary plus any one peer hold it (2 of
	// 3). A frame lost toward one peer no longer stalls the shard: the op
	// commits through the other, and the lagging peer is repaired by shipping
	// it the missing record suffix on the next operation (per-peer catch-up).
	// Promotion adopts the longest surviving peer log, which by the commit
	// rule contains every committed operation.
	BackendQuorum = "quorum"
)

// Backends lists every valid Config.Backend value.
var Backends = []string{BackendPair, BackendQuorum}

// Config describes a fleet.
type Config struct {
	Clock  clock.Clock
	Nodes  []string // node names, join order; need >= 2
	Shards int      // shard count; tenant t lives on shard t % Shards
	// Backend selects how many peers a shard seats (default BackendPair).
	// BackendQuorum needs a third live node per shard to seat its witness;
	// with none available the shard runs on whatever peers exist.
	Backend string
	// Fault and FaultEvery inject one fault kind on every FaultEvery-th
	// replication attempt (0 = no faults).
	Fault      string
	FaultEvery uint64
}

// The fleet's simulated costs, in virtual time.
const (
	netDelay     = 200 * time.Microsecond // one-way client <-> node
	repDelay     = 100 * time.Microsecond // one-way primary <-> peer
	opCost       = 10 * time.Microsecond  // executing one tenant op
	ackTimeout   = 10 * time.Millisecond  // primary gives up waiting for an ack
	promoteBase  = 2 * time.Millisecond   // fixed promotion cost on takeover
	promotePerOp = time.Microsecond       // per logged record replay cost on takeover
)

func (c *Config) fill() {
	if c.Fault == "" {
		c.Fault = FaultNone
	}
	if c.Backend == "" {
		c.Backend = BackendPair
	}
}

// Counters aggregates fleet-side event counts; every field is deterministic
// under a virtual clock.
type Counters struct {
	Executed      uint64 // operations applied to tenant state (first executions)
	DupHits       uint64 // requests answered from the dedup table
	Resent        uint64 // retransmissions of a head-of-line uncommitted op
	FramesDropped uint64
	AcksDropped   uint64
	RepliesLost   uint64
	StaleFrames   uint64 // frames rejected by a peer's epoch gate
	Promotions    uint64
	Transfers     uint64 // recruit state transfers
}

// Outcome reports one Submit call.
type Outcome struct {
	// Reply is nil when the client observes silence (dead node, lost frame
	// or ack, lost reply) and must retry after its timeout.
	Reply *wire.Reply
	// Cost is the simulated latency until the client observes the reply —
	// or, with a nil Reply, until the primary gave up (the client's own
	// timeout still applies on top).
	Cost time.Duration
}

// Fleet is a set of nodes hosting shard replicas.
type Fleet struct {
	cfg        Config
	clk        clock.Clock
	dir        *viewsvc.ShardDirectory
	nodes      map[string]*Node
	order      []string
	repAttempt uint64 // replication attempts, for deterministic fault striking
	counters   Counters
	frame      []byte // the encoded frame in flight: scratch reused by every ship
	ack        []byte // the encoded ack in flight: scratch reused by every deliver
}

// Node hosts one replica per shard it is seated on.
type Node struct {
	Name     string
	Alive    bool
	replicas map[int]*replica
}

// New builds a fleet: every node joins the directory, shards form round-robin,
// and each shard's replicas are seeded empty under the formation epoch — the
// directory's pair first, then (every pair seated, so witness placement sees
// the final loads) the links and whatever witness the backend adds.
func New(cfg Config) (*Fleet, error) {
	cfg.fill()
	if !slices.Contains(FaultKinds, cfg.Fault) {
		return nil, fmt.Errorf("fleet: unknown fault kind %q", cfg.Fault)
	}
	if !slices.Contains(Backends, cfg.Backend) {
		return nil, fmt.Errorf("fleet: unknown backend %q", cfg.Backend)
	}
	if len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("fleet: need >= 2 nodes, have %d", len(cfg.Nodes))
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: need >= 1 shard")
	}
	clk := clock.Or(cfg.Clock)
	f := &Fleet{
		cfg:   cfg,
		clk:   clk,
		dir:   viewsvc.NewShardDirectory(),
		nodes: make(map[string]*Node, len(cfg.Nodes)),
	}
	for _, name := range cfg.Nodes {
		f.dir.Join(name)
		f.nodes[name] = &Node{Name: name, Alive: true, replicas: make(map[int]*replica)}
		f.order = append(f.order, name)
	}
	views, err := f.dir.Form(cfg.Shards)
	if err != nil {
		return nil, err
	}
	for i, v := range views {
		f.nodes[v.Primary].replicas[i] = newReplica(i, v.Num, rolePrimary)
		f.nodes[v.Backup].replicas[i] = newReplica(i, v.Num, roleBackup)
	}
	for i, v := range views {
		pri := f.seated(v.Primary, i)
		setLinks(pri, f.seated(v.Backup, i), f.recruitWitness(pri, v.Num))
	}
	return f, nil
}

// witnessNode picks the node to seat a witness for shard on: alive, hosting
// no replica of this shard already, carrying the fewest replicas overall
// (ties resolve in join order). "" when every live node already holds the
// shard.
func (f *Fleet) witnessNode(shard int) string {
	best, bestLoad := "", 0
	for _, name := range f.order {
		n := f.nodes[name]
		if !n.Alive || n.replicas[shard] != nil {
			continue
		}
		if best == "" || len(n.replicas) < bestLoad {
			best, bestLoad = name, len(n.replicas)
		}
	}
	return best
}

// recruitWitness seats a fresh witness for pri's shard under epoch, seeded
// with a snapshot of the primary's log. Nil when the backend seats none
// (BackendPair) or no node can host one — the shard then runs on whatever
// peers remain.
func (f *Fleet) recruitWitness(pri *replica, epoch uint64) *replica {
	if f.cfg.Backend != BackendQuorum {
		return nil
	}
	name := f.witnessNode(pri.shard)
	if name == "" {
		return nil
	}
	w := newReplica(pri.shard, epoch, roleWitness)
	w.log = append(w.log, pri.log...)
	w.logged = pri.logged
	f.nodes[name].replicas[pri.shard] = w
	if pri.logged > 0 {
		f.counters.Transfers++
	}
	return w
}

// findWitness returns shard's live witness replica and its host node.
func (f *Fleet) findWitness(shard int) (*replica, string) {
	for _, name := range f.order {
		n := f.nodes[name]
		if !n.Alive {
			continue
		}
		if r := n.replicas[shard]; r != nil && r.role == roleWitness {
			return r, name
		}
	}
	return nil, ""
}

// setLinks rebuilds pri's shipping channels (backup first, witness second;
// nil peers are vacancies). Every link restarts under the primary's epoch and
// records what its peer already holds, so a surviving or snapshot-seeded peer
// needs no special handshake — the next ship carries exactly its missing
// suffix.
func setLinks(pri *replica, peers ...*replica) {
	pri.links = pri.links[:0]
	for _, p := range peers {
		if p == nil {
			continue
		}
		p.epoch = pri.epoch
		pri.links = append(pri.links, &peerLink{rep: p, recs: p.logged})
	}
}

// NumShards returns the shard count.
func (f *Fleet) NumShards() int { return f.cfg.Shards }

// Nodes returns the node names in join order.
func (f *Fleet) Nodes() []string { return append([]string(nil), f.order...) }

// Counters returns a snapshot of the fleet-side counters.
func (f *Fleet) Counters() Counters { return f.counters }

// Shard returns shard i's current view (the router's lookup).
func (f *Fleet) Shard(i int) viewsvc.View { return f.dir.Shard(i) }

// ShardOf maps a tenant to its shard.
func (f *Fleet) ShardOf(tenant uint64) int { return int(tenant % uint64(f.cfg.Shards)) }

// Route returns the node currently seated primary for tenant's shard, with
// the epoch the client should expect on replies.
func (f *Fleet) Route(tenant uint64) (node string, shard int, epoch uint64) {
	shard = f.ShardOf(tenant)
	v := f.dir.Shard(shard)
	return v.Primary, shard, v.Num
}

// Submit delivers one client request to node `to` and runs it to its outcome.
// The request executes atomically at the current virtual instant; Outcome.Cost
// is the latency the client observes. A nil Outcome.Reply is silence — the
// addressed node is dead, the shard's replication stalled on a fault, or the
// reply itself was lost — and the client must retry the same request id.
func (f *Fleet) Submit(req *wire.Request) Outcome {
	return f.SubmitTo(req, "")
}

// SubmitTo is Submit with an explicit destination node ("" routes to the
// current primary). Sending to a stale primary exercises the NotOwner path.
func (f *Fleet) SubmitTo(req *wire.Request, to string) Outcome {
	shard := f.ShardOf(req.Tenant)
	view := f.dir.Shard(shard)
	if to == "" {
		to = view.Primary
	}
	rtt := 2 * netDelay
	n := f.nodes[to]
	if n == nil || !n.Alive {
		// Dead or unknown node: silence.
		return Outcome{Cost: netDelay + ackTimeout}
	}
	r := n.replicas[shard]
	if r == nil || r.role != rolePrimary || view.Primary != to {
		return Outcome{
			Reply: &wire.Reply{Client: req.Client, Req: req.Req, Status: wire.StatusNotOwner, Epoch: view.Num},
			Cost:  rtt,
		}
	}
	if f.clk.Now().Before(r.availableAt) {
		// Mid-promotion: the replica exists but is still replaying its log.
		return Outcome{
			Reply: &wire.Reply{Client: req.Client, Req: req.Req, Status: wire.StatusUnavailable, Epoch: view.Num},
			Cost:  rtt,
		}
	}
	return f.serve(r, req, rtt)
}

// serve runs the primary-side protocol: dedup, execute, replicate, reply.
func (f *Fleet) serve(r *replica, req *wire.Request, rtt time.Duration) Outcome {
	if req.Op >= wire.OpKinds() {
		return Outcome{
			Reply: &wire.Reply{Client: req.Client, Req: req.Req, Status: wire.StatusStaleReq, Epoch: r.epoch},
			Cost:  rtt,
		}
	}
	ent, seen := r.dedup[req.Client]
	switch {
	case seen && req.Req < ent.req:
		// A request id below the client's high-water mark: the client moved
		// on; the old result is gone. Well-behaved clients never do this.
		return Outcome{
			Reply: &wire.Reply{Client: req.Client, Req: req.Req, Status: wire.StatusStaleReq, Epoch: r.epoch},
			Cost:  rtt,
		}
	case seen && req.Req == ent.req:
		f.counters.DupHits++
		if !ent.committed {
			// Executed and logged locally, but never acknowledged: the
			// output-commit rule forbids replying until a peer holds it.
			// Retransmit the same bytes under the same sequence number.
			if !f.flushPending(r) {
				return Outcome{Cost: netDelay + ackTimeout}
			}
			return Outcome{Reply: f.reply(r, req, ent.result), Cost: rtt + 2*repDelay}
		}
		return Outcome{Reply: f.reply(r, req, ent.result), Cost: rtt}
	}
	// Head-of-line: an earlier op is still unacknowledged. Its effect is in
	// the live state, so nothing later may reach the log before it — flush
	// it or stall the shard (the client retries into the repaired channel).
	if r.pending && !f.flushPending(r) {
		return Outcome{Cost: netDelay + ackTimeout}
	}
	// Fresh request: execute, log, replicate, then reply.
	result := apply(r.state, req.Tenant, req.Op, req.Arg)
	f.counters.Executed++
	r.appendLog(&wire.ClientOp{Client: req.Client, Req: req.Req, Tenant: req.Tenant, Op: req.Op, Arg: req.Arg, Result: result})
	cost, ok := f.replicate(r)
	r.dedup[req.Client] = dedupEntry{req: req.Req, result: result, committed: ok}
	if !ok {
		r.pending, r.pendingClient = true, req.Client
		return Outcome{Cost: netDelay + cost}
	}
	return Outcome{Reply: f.reply(r, req, result), Cost: rtt + opCost + cost}
}

// flushPending retransmits the shard's head-of-line uncommitted record. True
// means some peer holds the whole log again.
func (f *Fleet) flushPending(r *replica) bool {
	if !r.pending {
		return true
	}
	f.counters.Resent++
	if _, ok := f.replicate(r); !ok {
		return false
	}
	r.commitPending()
	return true
}

// reply builds the client reply for a committed result, or loses it when the
// fault schedule says so.
func (f *Fleet) reply(r *replica, req *wire.Request, result int64) *wire.Reply {
	if f.cfg.Fault == FaultReplyDrop && f.strike() {
		f.counters.RepliesLost++
		return nil
	}
	return &wire.Reply{Client: req.Client, Req: req.Req, Status: wire.StatusOK, Value: result, Epoch: r.epoch}
}

// strike reports whether the current replication attempt is fault-struck.
// The counter increments on every call, so the schedule is a pure function
// of the request sequence.
func (f *Fleet) strike() bool {
	if f.cfg.FaultEvery == 0 {
		return false
	}
	f.repAttempt++
	return f.repAttempt%f.cfg.FaultEvery == 0
}

// ship frames payload into the fleet's scratch buffer.
func (f *Fleet) ship(seq, epoch uint64, payload []byte) []byte {
	f.frame = wire.AppendFrame(f.frame[:0], &wire.Frame{Seq: seq, Epoch: epoch, AckWanted: true, Payload: payload})
	return f.frame
}

// replicate ships every link its missing log suffix as a real encoded frame
// and reports commit (replica.committed): the operation commits once any peer
// acks, under the primary's epoch, holding the full log. A link advances only
// on such an ack, so a retransmission cuts the same bytes under the same
// sequence; and the log is the authority, so the same path serves fresh
// operations and head-of-line retransmissions. Returns the simulated cost and
// whether the op committed. A shard running with no peer at all (recruitment
// found no live node) degrades to primary-only: the op commits locally, like
// the paper's degraded mode.
func (f *Fleet) replicate(r *replica) (time.Duration, bool) {
	if len(r.links) == 0 {
		return opCost, true
	}
	for _, ln := range r.links {
		if ln.recs >= r.logged {
			continue
		}
		b := f.ship(uint64(ln.recs), r.epoch, r.suffixFrom(ln.recs))
		if f.cfg.Fault == FaultFrameDrop && f.strike() {
			f.counters.FramesDropped++
			continue
		}
		ack, _ := ln.rep.deliver(f, b)
		if ack == nil {
			continue // epoch-gated, gap or mangled: the peer stayed silent
		}
		if f.cfg.Fault == FaultAckDrop && f.strike() {
			f.counters.AcksDropped++
			continue
		}
		epoch, held, err := wire.DecodeAck(ack)
		if err != nil || epoch != r.epoch {
			continue
		}
		if int(held) > ln.recs {
			ln.recs = int(held)
		}
	}
	if !r.committed() {
		return ackTimeout, false
	}
	return 2 * repDelay, true
}

// Kill fail-stops a node: the directory reseats every shard it was seated on,
// promotions replay backup logs under fresh epochs (taking promoteBase +
// promotePerOp per record of simulated unavailability), and vacancies are
// refilled by state transfer to the least-loaded live node. The returned
// changes list every reconfiguration in shard order.
func (f *Fleet) Kill(name string) ([]viewsvc.ShardChange, error) {
	n := f.nodes[name]
	if n == nil {
		return nil, fmt.Errorf("fleet: unknown node %s", name)
	}
	if !n.Alive {
		return nil, nil
	}
	n.Alive = false
	reporter := ""
	for _, o := range f.order {
		if o != name && f.nodes[o].Alive {
			reporter = o
			break
		}
	}
	if reporter == "" {
		return nil, fmt.Errorf("fleet: no live node left to report %s dead", name)
	}
	changes, err := f.dir.ReportFailure(reporter, name)
	if err != nil {
		return nil, err
	}
	now := f.clk.Now()
	for _, ch := range changes {
		f.reseat(ch, name, now)
	}
	f.rewitness(name)
	return changes, nil
}

// rewitness replaces every witness the dead node hosted for shards whose
// directory seats survived (reseat already rebuilt the reconfigured ones).
// Shards are swept in order so the replacement seating is deterministic.
func (f *Fleet) rewitness(dead string) {
	n := f.nodes[dead]
	for shard := 0; shard < f.cfg.Shards; shard++ {
		r := n.replicas[shard]
		if r == nil || r.role != roleWitness {
			continue
		}
		delete(n.replicas, shard)
		v := f.dir.Shard(shard)
		pri := f.seated(v.Primary, shard)
		setLinks(pri, f.seated(v.Backup, shard), f.recruitWitness(pri, pri.epoch))
	}
}

// reseat applies one directory reconfiguration to the replica seating.
func (f *Fleet) reseat(ch viewsvc.ShardChange, dead string, now time.Time) {
	shard := ch.Shard
	delete(f.nodes[dead].replicas, shard)
	wit, witNode := f.findWitness(shard)
	var pri *replica
	if ch.Old.Primary == dead {
		// The backup promotes: acquire the exactly-once license for the new
		// epoch, then replay the shipped log into live state. The shard is
		// unavailable while the replay runs.
		pri = f.seated(ch.Old.Backup, shard)
		if pri == nil {
			panic(fmt.Sprintf("fleet: shard %d backup %s has no replica", shard, ch.Old.Backup))
		}
		if wit != nil && wit.logged > pri.logged {
			// Max-log promotion: the witness out-logged the backup, so it
			// holds committed operations the backup missed. Peer logs are
			// byte-prefixes of the dead primary's, so adopting the longer one
			// is a merge.
			pri.log = append(pri.log[:0], wit.log...)
			pri.logged = wit.logged
		}
		if err := f.dir.AcquirePromotion(ch.New.Primary, shard, ch.New.Num); err != nil {
			panic(fmt.Sprintf("fleet: promotion license for shard %d: %v", shard, err))
		}
		pri.promote(ch.New.Num)
		pri.availableAt = now.Add(promoteBase + time.Duration(pri.logged)*promotePerOp)
		f.counters.Promotions++
	} else {
		// The backup died; the primary keeps serving under the new epoch.
		pri = f.seated(ch.Old.Primary, shard)
		if pri == nil {
			panic(fmt.Sprintf("fleet: shard %d primary %s has no replica", shard, ch.Old.Primary))
		}
		pri.epoch = ch.New.Num
	}
	var bak *replica
	if ch.New.Backup != "" {
		if witNode == ch.New.Backup {
			// The directory seated the backup chair on the witness's node:
			// the witness converts in place — it already holds a log prefix,
			// so the link repairs it by suffix instead of a snapshot.
			wit.role = roleBackup
			bak, wit = wit, nil
		} else {
			// Recruit by state transfer: the new backup receives a snapshot
			// of the primary's full log (its replay-equivalent state).
			bak = newReplica(shard, ch.New.Num, roleBackup)
			bak.log = append(bak.log, pri.log...)
			bak.logged = pri.logged
			f.nodes[ch.New.Backup].replicas[shard] = bak
			f.counters.Transfers++
		}
	}
	if wit == nil {
		wit = f.recruitWitness(pri, ch.New.Num)
	}
	setLinks(pri, bak, wit)
	// The snapshot transfer (or, with no recruit, the degraded local-only
	// mode) leaves every logged record replicated as far as the new
	// configuration replicates anything — including a head-of-line record
	// whose ack the old configuration lost: its link starts level, so there
	// is nothing to retransmit and the transfer itself is the commit. (Only a
	// shard left with nothing but a lagging survivor keeps its pending.)
	if pri.pending && pri.committed() {
		pri.commitPending()
	}
}

// InjectStaleFrame builds a frame stamped with a pre-reconfiguration epoch
// and delivers it to shard's current backup, modelling a deposed primary
// that missed its own death. The backup's epoch gate must reject it; the
// return value reports whether anything was logged (it must never be).
func (f *Fleet) InjectStaleFrame(shard int, staleEpoch uint64) bool {
	bak := f.seated(f.dir.Shard(shard).Backup, shard)
	if bak == nil || bak.role != roleBackup {
		return false
	}
	payload := wire.AppendClientOp(nil, &wire.ClientOp{Client: ^uint64(0), Req: 1, Tenant: uint64(shard), Op: wire.OpSet, Arg: -1, Result: -1})
	_, logged := bak.deliver(f, f.ship(uint64(bak.logged), staleEpoch, payload))
	return logged
}

// seated returns node's replica of shard; nil for an empty seat ("") or a
// node that holds none.
func (f *Fleet) seated(node string, shard int) *replica {
	if n := f.nodes[node]; n != nil {
		return n.replicas[shard]
	}
	return nil
}

// shardPrimaries returns shard -> current primary replica, shard-ordered.
func (f *Fleet) shardPrimaries() []*replica {
	out := make([]*replica, f.cfg.Shards)
	for i := range out {
		out[i] = f.seated(f.dir.Shard(i).Primary, i)
	}
	return out
}

// IsAlive reports whether node name is alive.
func (f *Fleet) IsAlive(name string) bool {
	n := f.nodes[name]
	return n != nil && n.Alive
}
