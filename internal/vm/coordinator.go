package vm

import (
	"errors"
	"math"

	fuzzrand "repro/internal/fuzzgen/rand"
	"repro/internal/heap"
	"repro/internal/native"
)

// NoPreempt is the branch-count target meaning "run until blocked or done".
const NoPreempt = math.MaxUint64

// SliceTarget tells the scheduler where to stop the next slice. A plain
// branch-count target (Exact=false) preempts at the first instruction
// boundary where BrCnt reaches Br — how quanta expire. A replayed switch
// point (Exact=true) additionally names the method/pc offset: br_cnt alone
// under-specifies positions because blocking operations switch at non-branch
// instructions, which is exactly why the paper's scheduling records carry
// pc_off (§4.2). The slice then runs until BrCnt == Br AND the thread sits
// at (Method, PC); within one branch interval a position cannot repeat, so
// the stop point is unique.
type SliceTarget struct {
	Br     uint64
	Exact  bool
	Method int32
	PC     int32
	// StopRunnable stops the slice when the position is reached while the
	// thread is still runnable (a replayed preemption). When false, an
	// exact target replays a switch caused by blocking: the slice runs
	// until the thread leaves the runnable state on its own, because
	// blocking instructions execute in phases at a single (br_cnt, pc).
	StopRunnable bool
}

// RunUntilBlocked is the target for "no preemption".
func RunUntilBlocked() SliceTarget { return SliceTarget{Br: NoPreempt} }

// BudgetTarget preempts after the thread executes the given additional
// branch budget.
func BudgetTarget(t *Thread, quantum uint64) SliceTarget {
	return SliceTarget{Br: t.BrCnt + quantum}
}

// Coordinator is the replica-coordination hook surface. The VM calls it for
// every decision the paper identifies as a source of non-determinism:
// scheduling (which thread runs next and for how many branches), lock
// acquisition order, virtual lock-id assignment, and native-method
// invocation. The baseline VM uses DefaultCoordinator; the replication
// package provides primary- and backup-side implementations.
type Coordinator interface {
	// PickNext chooses the next thread among runnable (never empty) and the
	// slice target at which to preempt it (RunUntilBlocked for none). cur is
	// the previously running thread (possibly no longer runnable, nil at
	// first dispatch). Returning a nil thread (with nil error) asks the
	// scheduler to idle: no dispatch is currently allowed (warm backups
	// waiting for the primary's next scheduling record) — OnIdle decides
	// whether to keep waiting.
	PickNext(vm *VM, runnable []*Thread, cur *Thread) (*Thread, SliceTarget, error)

	// OnDescheduled fires when the dispatched thread differs from cur: prev
	// was descheduled (its progress counters are final for this slice) and
	// next is about to run. prev is nil at first dispatch.
	OnDescheduled(vm *VM, prev, next *Thread) error

	// BeforeAcquire is consulted on every real (non-reentrant) acquisition
	// attempt of m by t. Returning false gates the thread (it will retry
	// when the coordinator makes it runnable again via Poll).
	BeforeAcquire(vm *VM, t *Thread, m *Monitor) (bool, error)

	// AssignLID produces the virtual lock id when t performs the first-ever
	// acquisition of m. Returning granted=false gates the thread (recovery:
	// the id map for this lock has not been matched yet, §4.2).
	AssignLID(vm *VM, t *Thread, m *Monitor) (lid int64, granted bool, err error)

	// OnAcquired fires after every real lock acquisition, with the
	// pre-increment sequence numbers still in place (t.TASN, m.LASN).
	OnAcquired(vm *VM, t *Thread, m *Monitor) error

	// NativeReady reports whether t's next intercepted native call may
	// proceed now. Returning false gates the thread before the call
	// instruction executes (warm backups waiting for the primary's record);
	// Poll re-admits it. Args are not yet popped and the pc is unchanged.
	NativeReady(vm *VM, t *Thread, def *native.Def) bool

	// InvokeNative performs an intercepted native call (def.Intercepted).
	// t.NatSeq has already been incremented past this call (1-based).
	InvokeNative(vm *VM, t *Thread, def *native.Def, args []heap.Value) ([]heap.Value, error)

	// Poll runs once per scheduler iteration; replay coordinators use it to
	// admit gated threads whose recorded turn has arrived. It reports
	// whether it made progress (woke at least one thread).
	Poll(vm *VM) (bool, error)

	// OnIdle fires when no thread is runnable but some are alive. Returning
	// retry=true makes the scheduler poll again (replay progress possible);
	// false is a genuine deadlock.
	OnIdle(vm *VM) (retry bool, err error)

	// OnHalt fires once when the VM terminates (normally or not).
	OnHalt(vm *VM, runErr error) error
}

// ErrDeadlock is returned when no thread can make progress.
var ErrDeadlock = errors.New("vm deadlock: no runnable threads")

// SchedPolicy decides baseline/primary scheduling: the order threads run in
// and the quantum (in branch count) each slice gets. Implementations must be
// deterministic functions of their own state so a run is reproducible from
// its seed.
type SchedPolicy interface {
	// Next picks from runnable (never empty); cur may be nil or dead.
	Next(runnable []*Thread, cur *Thread) *Thread
	// Quantum returns the branch-count budget for the next slice.
	Quantum() uint64
}

// RoundRobinPolicy cycles threads in slot order with a fixed quantum.
type RoundRobinPolicy struct {
	Q uint64
}

// Next implements SchedPolicy.
func (p *RoundRobinPolicy) Next(runnable []*Thread, cur *Thread) *Thread {
	if cur == nil {
		return runnable[0]
	}
	// First runnable with slot greater than cur's, wrapping.
	var best, wrap *Thread
	for _, t := range runnable {
		if t.Slot > cur.Slot && (best == nil || t.Slot < best.Slot) {
			best = t
		}
		if wrap == nil || t.Slot < wrap.Slot {
			wrap = t
		}
	}
	if best != nil {
		return best
	}
	return wrap
}

// Quantum implements SchedPolicy.
func (p *RoundRobinPolicy) Quantum() uint64 {
	if p.Q == 0 {
		return 4096
	}
	return p.Q
}

// SeededPolicy picks pseudo-randomly among runnable threads with a jittered
// quantum — the stand-in for timer-interrupt-driven preemption. Two replicas
// given different seeds genuinely interleave differently, which is what
// makes replicated lock acquisition (rather than luck) necessary for
// convergence.
type SeededPolicy struct {
	rng *fuzzrand.RNG
	// Seed is the seed the policy was made with; a capture header names it
	// so a replayer can make the same policy again.
	Seed       int64
	MinQ, MaxQ uint64
}

// NewSeededPolicy returns a policy seeded with seed. The XOR fold keeps the
// decision sequence byte-identical to the historical inlined SplitMix64.
func NewSeededPolicy(seed int64, minQ, maxQ uint64) *SeededPolicy {
	if minQ == 0 {
		minQ = 512
	}
	if maxQ < minQ {
		maxQ = minQ * 4
	}
	return &SeededPolicy{rng: fuzzrand.New(uint64(seed) ^ 0x9e3779b97f4a7c15), Seed: seed, MinQ: minQ, MaxQ: maxQ}
}

// Next implements SchedPolicy.
func (p *SeededPolicy) Next(runnable []*Thread, cur *Thread) *Thread {
	return runnable[p.rng.Next()%uint64(len(runnable))]
}

// Quantum implements SchedPolicy.
func (p *SeededPolicy) Quantum() uint64 {
	span := p.MaxQ - p.MinQ + 1
	return p.MinQ + p.rng.Next()%span
}

// PolicyCloner is implemented by scheduling policies that can produce an
// independent copy whose future decision sequence is identical. Checkpoint
// snapshots (the time-travel debugger) require it: a resumed copy must draw
// the same thread picks and quanta the original would have.
type PolicyCloner interface {
	ClonePolicy() SchedPolicy
}

// ClonePolicy implements PolicyCloner (a round-robin policy is stateless
// apart from its configuration).
func (p *RoundRobinPolicy) ClonePolicy() SchedPolicy { return &RoundRobinPolicy{Q: p.Q} }

// ClonePolicy implements PolicyCloner: the copy's PRNG sits at the same
// stream position.
func (p *SeededPolicy) ClonePolicy() SchedPolicy {
	return &SeededPolicy{rng: p.rng.Clone(), Seed: p.Seed, MinQ: p.MinQ, MaxQ: p.MaxQ}
}

// DefaultCoordinator runs the VM standalone (no replication): scheduling
// comes from a policy, every acquisition is granted immediately, lock ids
// are a counter, and natives are invoked directly.
type DefaultCoordinator struct {
	Policy SchedPolicy
	nextID int64
}

var _ Coordinator = (*DefaultCoordinator)(nil)

// NewDefaultCoordinator returns a coordinator with the given policy
// (round-robin if nil).
func NewDefaultCoordinator(p SchedPolicy) *DefaultCoordinator {
	if p == nil {
		p = &RoundRobinPolicy{}
	}
	return &DefaultCoordinator{Policy: p}
}

// PickNext implements Coordinator.
func (c *DefaultCoordinator) PickNext(_ *VM, runnable []*Thread, cur *Thread) (*Thread, SliceTarget, error) {
	t := c.Policy.Next(runnable, cur)
	return t, BudgetTarget(t, c.Policy.Quantum()), nil
}

// OnDescheduled implements Coordinator.
func (c *DefaultCoordinator) OnDescheduled(*VM, *Thread, *Thread) error { return nil }

// BeforeAcquire implements Coordinator.
func (c *DefaultCoordinator) BeforeAcquire(*VM, *Thread, *Monitor) (bool, error) { return true, nil }

// AssignLID implements Coordinator.
func (c *DefaultCoordinator) AssignLID(*VM, *Thread, *Monitor) (int64, bool, error) {
	c.nextID++
	return c.nextID, true, nil
}

// OnAcquired implements Coordinator.
func (c *DefaultCoordinator) OnAcquired(*VM, *Thread, *Monitor) error { return nil }

// NativeReady implements Coordinator.
func (c *DefaultCoordinator) NativeReady(*VM, *Thread, *native.Def) bool { return true }

// InvokeNative implements Coordinator.
func (c *DefaultCoordinator) InvokeNative(vm *VM, t *Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	return vm.DirectNative(t, def, args)
}

// Poll implements Coordinator.
func (c *DefaultCoordinator) Poll(*VM) (bool, error) { return false, nil }

// OnIdle implements Coordinator.
func (c *DefaultCoordinator) OnIdle(*VM) (bool, error) { return false, nil }

// OnHalt implements Coordinator.
func (c *DefaultCoordinator) OnHalt(*VM, error) error { return nil }
