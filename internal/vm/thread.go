// Package vm implements the FTVM execution core: the set of bytecode
// execution engines (BEEs, §3) — one per application thread — driven by a
// cooperative green-thread scheduler on a single goroutine, with Java-style
// monitors (reentrant locks, wait sets, notify), virtual thread ids, branch
// counting, and the event/control interfaces (Coordinator) that the
// replication layer plugs into.
package vm

import (
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/heap"
)

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

// Thread states.
const (
	// StateRunnable threads may be scheduled.
	StateRunnable ThreadState = iota + 1
	// StateBlocked threads are contending for a monitor; they become
	// runnable again when it is released and then re-execute the acquire.
	StateBlocked
	// StateWaiting threads sit in a monitor's wait set until notified.
	StateWaiting
	// StateGated threads are held back by the replay coordinator until
	// their recorded turn arrives (§4.2 recovery).
	StateGated
	// StateDead threads have finished.
	StateDead
)

func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateWaiting:
		return "waiting"
	case StateGated:
		return "gated"
	case StateDead:
		return "dead"
	default:
		return "invalid"
	}
}

// Frame is one activation record of a BEE.
type Frame struct {
	Method int32
	PC     int32
	Locals []heap.Value
	Stack  []heap.Value
	// finalizer marks frames pushed to run an object finalizer after GC.
	finalizer bool
}

func (f *Frame) push(v heap.Value) { f.Stack = append(f.Stack, v) }

// takeArgs truncates the operand stack below its top n values and returns
// them as a view (valid until the next push), advancing the pc past the call.
func (f *Frame) takeArgs(n int) []heap.Value {
	base := len(f.Stack) - n
	args := f.Stack[base:]
	f.Stack = f.Stack[:base]
	f.PC++
	return args
}

// Thread is one BEE: a virtual thread id, a frame stack, scheduling state,
// and the progress counters replica coordination needs (br_cnt, mon_cnt,
// t_asn, per-thread native and output sequence numbers).
type Thread struct {
	// Slot is the index in the VM's thread table (not stable across
	// replicas — use VTID for cross-replica identity).
	Slot int32
	// VTID is the virtual thread id: the parent's id plus the relative
	// order of creation among siblings ("0", "0.1", "0.1.2", …), which is
	// identical at primary and backup regardless of scheduling (§4.2).
	VTID string
	// Ref is the heap thread-handle object.
	Ref heap.Ref

	childCount int

	frames []Frame
	state  ThreadState

	// blockedOn is the monitor this thread contends for (StateBlocked),
	// waits on (StateWaiting) or is gated on (StateGated, may be nil when
	// gated on an id-map assignment).
	blockedOn *Monitor
	// reacquiring marks a thread resuming from wait: the re-executed OpWait
	// acquires the monitor and restores savedEntries instead of waiting.
	reacquiring  bool
	savedEntries int
	// waitLASN is the monitor's acquire sequence number observed when this
	// thread blocked (cross-checked against scheduling records).
	waitLASN uint64

	// finishing marks that the synthetic $finish method has been pushed.
	finishing bool
	// logicallyDead is set by OpMarkDead inside $finish (under the thread
	// object's monitor), making OpAlive race-free.
	logicallyDead bool
	// finalizerDepth counts active finalizer frames; while positive the
	// thread must not use monitors, spawn threads or call intercepted
	// natives (the deterministic-finalizer assumption of §4.3, enforced).
	finalizerDepth int

	yielded bool

	// Progress carries the control-path checksum a TrackProgress VM
	// maintains (replicated thread scheduling).
	Progress ProgressSnapshot

	// Progress counters (§4.2).
	BrCnt  uint64 // control-flow changes executed
	MonCnt uint64 // monitor acquisitions + releases
	TASN   uint64 // locks acquired so far (thread acquire sequence number)
	NatSeq uint64 // intercepted native invocations so far
	OutSeq uint64 // output sequence number (per-thread, deterministic)
}

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// Top returns the active frame (nil when the thread has no frames).
func (t *Thread) Top() *Frame {
	if len(t.frames) == 0 {
		return nil
	}
	return &t.frames[len(t.frames)-1]
}

// Depth returns the call depth.
func (t *Thread) Depth() int { return len(t.frames) }

// BlockedOn returns the monitor the thread is blocked/waiting/gated on.
func (t *Thread) BlockedOn() *Monitor { return t.blockedOn }

// pushFrame activates m with args as its leading locals. Popped frame slots
// keep their Locals/Stack arrays so a call following a return reuses them
// instead of allocating; args may alias the caller's operand stack — it is
// fully copied before this returns. The GC only scans live frames, so the
// retained arrays never keep garbage alive past the next push.
func (t *Thread) pushFrame(m *bytecode.Method, method int32, args []heap.Value) {
	n := len(t.frames)
	if n < cap(t.frames) {
		t.frames = t.frames[:n+1]
	} else {
		t.frames = append(t.frames, Frame{})
	}
	f := &t.frames[n]
	f.Method = method
	f.PC = 0
	f.finalizer = false
	if cap(f.Locals) >= m.NLocals {
		f.Locals = f.Locals[:m.NLocals]
	} else {
		f.Locals = make([]heap.Value, m.NLocals)
	}
	filled := copy(f.Locals, args)
	for i := filled; i < m.NLocals; i++ {
		f.Locals[i] = heap.Null()
	}
	if f.Stack == nil {
		f.Stack = make([]heap.Value, 0, 8)
	} else {
		f.Stack = f.Stack[:0]
	}
}

func childVTID(parent *Thread) string {
	parent.childCount++
	return parent.VTID + "." + strconv.Itoa(parent.childCount)
}

// 64-bit FNV-1a parameters. The offset basis also seeds every thread's
// control-path checksum: a thread descheduled before its first branch carries
// it, so no legitimate checksum is the zero value of a cleared record field.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ProgressSnapshot is the part of the §4.2 progress record that cannot be
// read off the thread at a stop point (method, pc offset, br_cnt and mon_cnt
// can: threads are only descheduled flushed, at block edges and blocking
// ops). Chk is a rolling checksum of the thread's control path, maintained
// under TrackProgress: once per executed branch-counted instruction whose
// br_cnt tick stands (no fault, no native call rolled back for a retry — so
// folds == br_cnt) it folds the (method, pc) of the top frame as that
// instruction leaves it, -1/-1 when no frame is left. Between two ticks
// execution is straight-line, so the folded positions determine every pc
// visited; the backup cross-checks Chk at each replayed switch and so catches
// divergence inside a scheduling interval, not just at its endpoints.
type ProgressSnapshot struct {
	Chk uint64
}

// posKey is the fold key of a position: the method in the high word, the pc
// in the low one.
func posKey(method, pc int32) uint64 { return uint64(uint32(method))<<32 | uint64(uint32(pc)) }

func (p *ProgressSnapshot) fold(k uint64) { p.Chk = p.Chk*fnvPrime64 ^ k }

// foldTop folds the position of t's top frame. The frame must be flushed.
func (t *Thread) foldTop() {
	k := posKey(-1, -1)
	if f := t.Top(); f != nil {
		k = posKey(f.Method, f.PC)
	}
	t.Progress.fold(k)
}
