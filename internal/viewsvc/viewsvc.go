// Package viewsvc tracks replica-set membership as a sequence of numbered
// views and decides who replaces whom when a replica dies. A view names one
// primary and (when a node is available) one backup; every configuration
// change — primary failure, backup failure, recruitment — issues a new view
// number, and the number doubles as the replication epoch stamped on every
// wire frame (see internal/replication): receivers reject traffic from older
// epochs, which is what closes the split-brain window where a deposed primary
// and its successor both believe their outputs commit.
//
// There is one manager, the ShardDirectory: a table of shards, each its own
// primary/backup pair drawn from a single member pool. A single replica set —
// the three-node cluster of internal/simtest — is the one-shard directory,
// Form(1), not a second service.
//
// The directory is deliberately not itself replicated — in the paper's
// deployment (§2) the pair runs under an external management layer; here the
// directory plays that layer for the fleet, the simulation harness and tests.
// It is fully clock-injected: failure detection reads the injected
// clock.Clock, so whole cluster lifetimes replay deterministically under a
// virtual clock.
package viewsvc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simtest/clock"
)

// Errors returned by the promotion guard and membership calls.
var (
	// ErrUnknownNode: the named node never joined.
	ErrUnknownNode = errors.New("viewsvc: unknown node")
	// ErrStaleView: the caller is acting on a view that has been superseded
	// (e.g. acquiring a promotion for view 2 when the shard is at view 3).
	ErrStaleView = errors.New("viewsvc: view superseded")
	// ErrNotPrimary: the caller is not the primary of the view it names, so
	// it has no business taking over.
	ErrNotPrimary = errors.New("viewsvc: node is not the primary of this view")
	// ErrAlreadyPromoted: the view's promotion was already acquired — a
	// second concurrent takeover must not also count for output commit.
	ErrAlreadyPromoted = errors.New("viewsvc: promotion already acquired for this view")
	// ErrDead: the node was declared failed; dead nodes cannot act.
	ErrDead = errors.New("viewsvc: node is declared dead")
)

// View is one replica-set configuration. Num is the epoch: strictly
// increasing per shard, never reused. Backup is empty when no live node was
// available to recruit (the pair runs degraded); Primary is empty too once a
// primary died with no backup to promote — the replica set is gone.
type View struct {
	Num     uint64
	Primary string
	Backup  string
}

// Config configures the directory.
type Config struct {
	// Clock supplies time for the failure detector (nil = wall clock).
	Clock clock.Clock
	// FailTimeout: a member silent for longer than this is declared dead by
	// Tick (0 disables ping-based detection; ReportFailure still works).
	FailTimeout time.Duration
}

type member struct {
	lastPing time.Time
	dead     bool
}

// ShardDirectory is the membership tracker and view manager. Every shard's
// view number is issued from one directory-global epoch sequence, which makes
// epochs unique across the whole fleet — a frame or ack stamped with an epoch
// names exactly one (shard, configuration), so the split-brain gate needs no
// shard id on the wire — while staying strictly increasing per shard, which
// is all the receivers' staleness checks require. With one shard the sequence
// is simply 1, 2, 3, ….
//
// A node death is a *batch* reconfiguration: every shard where the dead node
// held a seat reseats in one step (primary dead → backup promotes and a new
// backup is recruited; backup dead → a new backup is recruited), each under
// a freshly issued epoch, so the old configuration's frames and acks become
// rejectable everywhere. Recruitment is deterministic least-loaded: the live
// node holding the fewest seats takes the vacancy, ties broken by join order
// — so shard placement, and therefore a whole simulation, is a pure function
// of the join sequence and the failure schedule.
type ShardDirectory struct {
	clk     clock.Clock
	timeout time.Duration

	mu      sync.Mutex
	members map[string]*member
	order   []string // join order: deterministic seating preference
	epoch   uint64   // last issued epoch, shared by every shard
	shards  []View
	claimed map[uint64]string // epoch -> node that acquired its promotion
}

// ShardChange describes one shard's reconfiguration after a node death.
type ShardChange struct {
	Shard    int
	Old, New View
}

// NewShardDirectory builds a directory with no members and no shards.
func NewShardDirectory(cfg Config) *ShardDirectory {
	return &ShardDirectory{
		clk:     clock.Or(cfg.Clock),
		timeout: cfg.FailTimeout,
		members: make(map[string]*member),
		claimed: make(map[uint64]string),
	}
}

// Join registers a node (idempotent; re-joining refreshes its ping and
// resurrects a node declared dead). Joining moves no seats — a new node waits
// as recruitable spare capacity until Form or a failure seats it.
func (d *ShardDirectory) Join(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[name]; ok {
		m.lastPing = d.clk.Now()
		m.dead = false
		return
	}
	d.members[name] = &member{lastPing: d.clk.Now()}
	d.order = append(d.order, name)
}

// Ping records a heartbeat from name. Unknown and dead nodes are ignored (a
// deposed node's stray ping must not resurrect it).
func (d *ShardDirectory) Ping(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m, ok := d.members[name]; ok && !m.dead {
		m.lastPing = d.clk.Now()
	}
}

// Form establishes n shards over the current live members, round-robin in
// join order: shard i's primary is the i-th live member (mod live count) and
// its backup the next one. With m members each node starts with ~n/m primary
// seats and ~n/m backup seats — the even spread that keeps a single node
// kill's blast radius near 1/m of the fleet. A lone live member forms
// degraded shards with no backup. It errors if no live member exists or
// shards are already formed.
func (d *ShardDirectory) Form(n int) ([]View, error) {
	if n < 1 {
		return nil, errors.New("viewsvc: shard count must be positive")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.shards) != 0 {
		return nil, fmt.Errorf("viewsvc: %d shards already formed", len(d.shards))
	}
	var live []string
	for _, name := range d.order {
		if !d.members[name].dead {
			live = append(live, name)
		}
	}
	if len(live) == 0 {
		return nil, errors.New("viewsvc: no live members to form a view")
	}
	d.shards = make([]View, n)
	for i := range d.shards {
		d.epoch++
		d.shards[i] = View{Num: d.epoch, Primary: live[i%len(live)]}
		if len(live) > 1 {
			d.shards[i].Backup = live[(i+1)%len(live)]
		}
	}
	return append([]View(nil), d.shards...), nil
}

// Shard returns shard i's current view.
func (d *ShardDirectory) Shard(i int) View {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.shards) {
		return View{}
	}
	return d.shards[i]
}

// ReportFailure lets a replica surface a failure its own detector found (a
// closed transport, heartbeat silence on the replication channel): dead is
// declared failed immediately and every shard where it held a seat reseats.
// The reporter must be a live member — a node that was itself deposed cannot
// vote its successor dead. The returned changes list every reconfiguration in
// shard order; an already-dead node yields none.
func (d *ShardDirectory) ReportFailure(reporter, dead string) ([]ShardChange, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.liveLocked(reporter); err != nil {
		return nil, err
	}
	m, ok := d.members[dead]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, dead)
	}
	if m.dead {
		return nil, nil
	}
	m.dead = true
	return d.reseatLocked(dead), nil
}

// liveLocked is the standing every acting node needs: joined and not dead.
func (d *ShardDirectory) liveLocked(node string) error {
	m, ok := d.members[node]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	if m.dead {
		return fmt.Errorf("%w: %s", ErrDead, node)
	}
	return nil
}

// Tick runs the ping-based failure detector once: members silent for longer
// than FailTimeout are declared dead and their shards reseat. It returns
// every reconfiguration it caused. Call it from a periodic loop (see Watcher)
// or explicitly in deterministic tests.
func (d *ShardDirectory) Tick() []ShardChange {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timeout <= 0 {
		return nil
	}
	now := d.clk.Now()
	var changes []ShardChange
	for _, name := range d.order {
		m := d.members[name]
		if !m.dead && now.Sub(m.lastPing) > d.timeout {
			m.dead = true
			changes = append(changes, d.reseatLocked(name)...)
		}
	}
	return changes
}

// reseatLocked reconfigures every shard where name held a seat: a dead
// primary is replaced by the backup (promotion), a dead backup by a recruit.
// A primary that died with no backup leaves the terminal, empty view.
func (d *ShardDirectory) reseatLocked(name string) []ShardChange {
	var changes []ShardChange
	for i, old := range d.shards {
		if old.Primary != name && old.Backup != name {
			continue
		}
		d.epoch++
		next := View{Num: d.epoch, Primary: old.Primary}
		if old.Primary == name {
			next.Primary = old.Backup // promotion
		}
		if next.Primary != "" {
			next.Backup = d.recruitLocked(next.Primary)
		}
		d.shards[i] = next
		changes = append(changes, ShardChange{Shard: i, Old: old, New: next})
	}
	return changes
}

// recruitLocked picks the live node (other than exclude) currently holding
// the fewest seats; ties break toward the oldest join. Returns "" when no
// live node remains — the shard runs without a backup until one joins.
func (d *ShardDirectory) recruitLocked(exclude string) string {
	loads := make(map[string]int, len(d.members))
	for _, v := range d.shards {
		loads[v.Primary]++
		loads[v.Backup]++
	}
	best := ""
	for _, name := range d.order {
		if name == exclude || d.members[name].dead {
			continue
		}
		if best == "" || loads[name] < loads[best] {
			best = name
		}
	}
	return best
}

// AcquirePromotion is the takeover guard: the primary of shard's current view
// calls it with the epoch it believes it leads before it counts any output as
// committed under that epoch. Exactly one acquisition per issued epoch
// succeeds — a second takeover attempt (the double-takeover race: two
// replicas both concluding they should lead) gets ErrAlreadyPromoted instead
// of a second license to commit. Acting on a superseded view is ErrStaleView;
// acting from the wrong seat is ErrNotPrimary. Acquiring the same epoch twice
// *from the same node* is also an error: promotion is an edge, not a state,
// and a caller that lost track must rejoin the protocol rather than re-commit.
func (d *ShardDirectory) AcquirePromotion(node string, shard int, epoch uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.liveLocked(node); err != nil {
		return err
	}
	if shard < 0 || shard >= len(d.shards) {
		return fmt.Errorf("viewsvc: no shard %d", shard)
	}
	v := d.shards[shard]
	if epoch != v.Num {
		return fmt.Errorf("%w: acquiring shard %d epoch %d, current is %d", ErrStaleView, shard, epoch, v.Num)
	}
	if v.Primary != node {
		return fmt.Errorf("%w: %s acquiring shard %d led by %s", ErrNotPrimary, node, shard, v.Primary)
	}
	if by, dup := d.claimed[epoch]; dup {
		return fmt.Errorf("%w: shard %d epoch %d already acquired by %s", ErrAlreadyPromoted, shard, epoch, by)
	}
	d.claimed[epoch] = node
	return nil
}

// SeatCounts returns, per live node in join order, how many primary and
// backup seats it holds — the balance the fleet's blast-radius report reads.
func (d *ShardDirectory) SeatCounts() (names []string, primaries, backups []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pc := make(map[string]int)
	bc := make(map[string]int)
	for _, v := range d.shards {
		pc[v.Primary]++
		bc[v.Backup]++
	}
	for _, name := range d.order {
		if d.members[name].dead {
			continue
		}
		names = append(names, name)
		primaries = append(primaries, pc[name])
		backups = append(backups, bc[name])
	}
	return names, primaries, backups
}
