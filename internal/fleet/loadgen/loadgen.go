// Package loadgen drives a fleet.Fleet with an open-loop, seeded,
// million-client workload on the injected clock. Under a virtual clock the
// whole run — arrivals, retries, node kills, promotion windows — executes as
// a single-actor discrete-event simulation: millions of simulated requests
// complete in seconds of wall time, and every run with the same (config,
// seed) produces a byte-identical trace.
//
// Clients are sessions: each client's start time is drawn over the arrival
// window (open-loop — arrivals do not depend on completions), and within a
// session the client issues its requests sequentially with monotonically
// increasing request ids, retrying the same id until it observes a reply.
// The per-request operation is a pure function of (client seed, request id),
// so a retry always re-sends byte-identical work — the property the server's
// dedup table depends on.
//
// Each client caches the node it believes leads its tenant's shard. A kill
// leaves those caches stale: affected clients time out against the dead
// node, refresh their route, and retry — the client half of the failover
// blast radius the stats report.
package loadgen

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/fuzzgen/rand"
	"repro/internal/simtest/clock"
	"repro/internal/wire"
)

// Kill schedules one node fail-stop.
type Kill struct {
	At   time.Duration // offset from the run start
	Node string
}

// Config parameterises a run.
type Config struct {
	Clients      int
	OpsPerClient int
	Seed         uint64        // master seed; every random choice derives from it
	Window       time.Duration // arrival window for client start times (default 1s)
	Kills        []Kill
	// SampleEvery records observations (for fleet.Verify) from every Nth
	// client; 0 records every client. Large runs sample to bound memory.
	SampleEvery int
}

// A client's retry discipline.
const (
	reqTimeout = 20 * time.Millisecond // silence → retry after this
	backoff    = 2 * time.Millisecond  // base retry backoff on Unavailable
	maxTries   = 64                    // per request, before the run fails
)

// fill fills c's defaults (a zero field takes its default) and refuses, by
// field, a config that cannot run on a fleet of nodes.
func (c *Config) fill(nodes []string) error {
	if c.Clients < 1 || c.OpsPerClient < 1 {
		return fmt.Errorf("loadgen: need >= 1 client and >= 1 op, have %d/%d", c.Clients, c.OpsPerClient)
	}
	if c.Window < 0 {
		return fmt.Errorf("loadgen: Window %v is negative", c.Window)
	}
	for i, k := range c.Kills {
		if k.At < 0 {
			return fmt.Errorf("loadgen: Kills[%d].At %v is negative", i, k.At)
		}
		if !slices.Contains(nodes, k.Node) {
			return fmt.Errorf("loadgen: Kills[%d].Node %q is not a node of the fleet", i, k.Node)
		}
	}
	if c.Window == 0 {
		c.Window = time.Second
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	return nil
}

// Stats summarises a run. Every field is deterministic per (config, seed).
type Stats struct {
	Clients     int
	Requests    uint64 // unique (client, req) pairs issued
	OKs         uint64
	Retries     uint64 // re-sends of an already-issued request id
	NotOwner    uint64
	Unavailable uint64
	Silent      uint64 // timeouts: dead node, dropped frame/ack/reply
	Elapsed     time.Duration
	Throughput  float64 // OK replies per virtual second
	P50, P99    time.Duration
	// BlastRadius is the fraction of active tenants that observed at least
	// one failover symptom (silence against a dead primary, or a promotion-
	// window Unavailable). Bounded by the killed nodes' primary-seat share,
	// and usually far under it: only tenants actually issuing during the
	// outage window are touched.
	BlastRadius    float64
	TenantsActive  int
	TenantsBlasted int
	Fleet          fleet.Counters
	Checksum       uint64
}

// client is one session's state. Kept to one cache line: a million of these
// is the generator's dominant allocation.
type client struct {
	tenant uint64
	seed   uint64
	issued int64  // virtual ns when the current request id was first sent
	req    uint32 // current request id, 1-based
	tries  uint32
	node   int32 // cached primary node index, -1 = consult the router
}

// event is one scheduled step: a client (re)sending, or a kill (client < 0).
type event struct {
	at     int64 // virtual ns from run start
	seq    uint64
	client int32
}

// before is the queue's total order: schedule order breaks ties between
// simultaneous events, so pop order is fully deterministic.
func (e event) before(o event) bool { return e.at < o.at || e.at == o.at && e.seq < o.seq }

// queue is a run's schedule. Every client's first arrival is known before the
// run starts, so arrivals are sorted once by (at, seq); the heap takes what
// the run schedules as it goes — next requests, retries and kills — so it is
// as deep as the clients in flight, not the population. pop runs the earlier
// of the two heads: the order one heap over every event would pop.
type queue struct {
	arrivals []event
	heap     eventHeap
}

func newQueue(arrivals []event) *queue {
	slices.SortFunc(arrivals, func(a, b event) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
	return &queue{arrivals: arrivals}
}

// pop removes the earliest event; false when none is left.
func (q *queue) pop() (event, bool) {
	if len(q.arrivals) > 0 && (len(q.heap) == 0 || q.arrivals[0].before(q.heap[0])) {
		ev := q.arrivals[0]
		q.arrivals = q.arrivals[1:]
		return ev, true
	}
	if len(q.heap) == 0 {
		return event{}, false
	}
	return q.heap.pop(), true
}

// eventHeap is a binary min-heap of events by value; container/heap would box
// each one into an interface on the way in and again on the way out.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i], i = q[parent], parent
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	e := q[n] // re-seated from the root down
	q = q[:n]
	for i := 0; n > 0; {
		child := 2*i + 1
		if child+1 < n && q[child+1].before(q[child]) {
			child++
		}
		if child >= n || !q[child].before(e) {
			q[i] = e
			break
		}
		q[i], i = q[child], child
	}
	*h = q
	return top
}

// reqOp derives the operation for (seed, req) — a pure function, so retries
// re-send identical work.
func reqOp(seed uint64, req uint32) (op uint8, arg int64) {
	r := rand.New(seed ^ uint64(req)*0x9e3779b97f4a7c15)
	op = uint8(r.Intn(int(wire.OpKinds())))
	arg = int64(r.Range(-1000, 1000))
	return op, arg
}

// Run executes the workload against f on clk. Call from a clock-attached
// goroutine when clk is virtual; the run is the sole driver of simulated
// time. Returns the stats, the sampled observations already verified against
// the fleet's model (Run ends with f.Audit, whose checksum is
// Stats.Checksum), and the first error.
func Run(f *fleet.Fleet, clk clock.Clock, cfg Config) (*Stats, []fleet.Observation, error) {
	nodes := f.Nodes()
	if err := cfg.fill(nodes); err != nil {
		return nil, nil, err
	}
	clk = clock.Or(clk)
	master := rand.New(cfg.Seed)
	arrival := master.Fork()
	seeds := master.Fork()

	nodeIdx := make(map[string]int32, len(nodes))
	for i, n := range nodes {
		nodeIdx[n] = int32(i)
	}

	// The tenant id space: one tenant per 16 clients, and at least 16.
	tenants := max(cfg.Clients/16, 16)
	clients := make([]client, cfg.Clients)
	arrivals := make([]event, cfg.Clients)
	var seq uint64
	for i := range clients {
		clients[i] = client{
			tenant: uint64(arrival.Intn(tenants)),
			seed:   seeds.Next(),
			req:    1,
			node:   -1,
		}
		seq++
		arrivals[i] = event{at: int64(arrival.Intn(int(cfg.Window))), seq: seq, client: int32(i)}
	}
	q := newQueue(arrivals)
	push := func(at int64, cl int32) {
		seq++
		q.heap.push(event{at: at, seq: seq, client: cl})
	}
	for ki, k := range cfg.Kills {
		push(int64(k.At), int32(-1-ki))
	}

	var st Stats
	st.Clients = cfg.Clients
	activeTenants := make(map[uint64]struct{})
	blasted := make(map[uint64]struct{})
	var hist histogram
	var obs []fleet.Observation
	var reply wire.Reply // every request answers into this one

	start := clk.Now()
	var now int64
	for ev, ok := q.pop(); ok; ev, ok = q.pop() {
		if ev.at > now {
			clk.Sleep(time.Duration(ev.at - now))
			now = ev.at
		}
		if ev.client < 0 {
			k := cfg.Kills[-1-ev.client]
			if _, err := f.Kill(k.Node); err != nil {
				return nil, nil, fmt.Errorf("loadgen: kill %s at %v: %w", k.Node, k.At, err)
			}
			continue
		}
		c := &clients[ev.client]
		if c.tries == 0 {
			c.issued = now
			st.Requests++
			activeTenants[c.tenant] = struct{}{}
		} else {
			st.Retries++
		}
		c.tries++
		if int(c.tries) > maxTries {
			return nil, nil, fmt.Errorf("loadgen: client %d req %d exceeded %d tries", ev.client, c.req, maxTries)
		}
		if c.node < 0 {
			node, _, _ := f.Route(c.tenant)
			c.node = nodeIdx[node]
		}
		op, arg := reqOp(c.seed, c.req)
		req := &wire.Request{Client: uint64(ev.client) + 1, Req: uint64(c.req), Tenant: c.tenant, Op: op, Arg: arg}
		out := f.SubmitTo(req, nodes[c.node], &reply)
		cost := int64(out.Cost)
		switch {
		case out.Reply == nil:
			// Silence: dead node, lost frame/ack, or lost reply. Wait out
			// the client timeout, refresh the route, retry the same id.
			st.Silent++
			if !f.IsAlive(nodes[c.node]) {
				blasted[c.tenant] = struct{}{}
			}
			c.node = -1
			wait := cost
			if t := int64(reqTimeout); t > wait {
				wait = t
			}
			push(now+wait+jitter(c.seed, c.req, c.tries, backoff), ev.client)
		case out.Reply.Status == wire.StatusOK:
			st.OKs++
			hist.add(time.Duration(now + cost - c.issued))
			if int(ev.client)%cfg.SampleEvery == 0 {
				obs = append(obs, fleet.Observation{Client: req.Client, Req: req.Req, Value: out.Reply.Value})
			}
			c.req++
			c.tries = 0
			if int(c.req) <= cfg.OpsPerClient {
				push(now+cost, ev.client)
			}
		case out.Reply.Status == wire.StatusNotOwner:
			// Stale route: refresh and resend immediately (the reply's
			// round-trip already cost us `cost`).
			st.NotOwner++
			c.node = -1
			push(now+cost, ev.client)
		case out.Reply.Status == wire.StatusUnavailable:
			// Mid-promotion: back off and retry.
			st.Unavailable++
			blasted[c.tenant] = struct{}{}
			push(now+cost+jitter(c.seed, c.req, c.tries, backoff), ev.client)
		default:
			return nil, nil, fmt.Errorf("loadgen: client %d req %d got %s", ev.client, c.req, wire.StatusName(out.Reply.Status))
		}
	}

	st.Elapsed = clk.Now().Sub(start)
	if s := st.Elapsed.Seconds(); s > 0 {
		st.Throughput = float64(st.OKs) / s
	}
	st.P50 = hist.quantile(0.50)
	st.P99 = hist.quantile(0.99)
	st.TenantsActive = len(activeTenants)
	st.TenantsBlasted = len(blasted)
	if st.TenantsActive > 0 {
		st.BlastRadius = float64(st.TenantsBlasted) / float64(st.TenantsActive)
	}
	st.Fleet = f.Counters()
	var err error
	if st.Checksum, err = f.Audit(obs); err != nil {
		return &st, obs, fmt.Errorf("loadgen: model verification: %w", err)
	}
	return &st, obs, nil
}

// jitter derives a deterministic retry backoff in (0, base] from the retry
// identity, de-synchronising colliding retries without wall randomness.
func jitter(seed uint64, req, tries uint32, base time.Duration) int64 {
	if base <= 0 {
		return 0
	}
	r := rand.New(seed ^ uint64(req)<<32 ^ uint64(tries))
	return 1 + int64(r.Intn(int(base)))
}

// histogram is an HDR-lite latency histogram: exact µs buckets below 16µs,
// then 8 sub-buckets per octave. Deterministic quantiles at ~6% resolution.
type histogram struct {
	buckets [1040]uint64
	total   uint64
}

func (h *histogram) index(v uint64) int {
	if v < 16 {
		return int(v)
	}
	sh := bits.Len64(v) - 4 // v>>sh in [8, 15]
	idx := 16*sh + int(v>>sh)
	if idx >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return idx
}

func (h *histogram) add(d time.Duration) {
	us := uint64(d / time.Microsecond)
	h.buckets[h.index(us)]++
	h.total++
}

// quantile returns the representative latency at quantile q.
func (h *histogram) quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	target := uint64(q * float64(h.total))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for idx, n := range h.buckets {
		seen += n
		if seen >= target {
			return bucketRep(idx)
		}
	}
	return bucketRep(len(h.buckets) - 1)
}

// bucketRep maps a bucket index back to its midpoint value in µs.
func bucketRep(idx int) time.Duration {
	if idx < 16 {
		return time.Duration(idx) * time.Microsecond
	}
	sh := idx / 16
	m := uint64(idx % 16)
	lo := m << sh
	return time.Duration(lo+(uint64(1)<<sh)/2) * time.Microsecond
}
