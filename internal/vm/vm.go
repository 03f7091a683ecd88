package vm

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/bytecode/pairfreq"
	"repro/internal/env"
	"repro/internal/heap"
	"repro/internal/native"
)

// Stats are the per-run counters the experiment harness reports (Table 2).
type Stats struct {
	Instructions    uint64 // bytecodes executed
	Branches        uint64 // control-flow changes (br_cnt total)
	LocksAcquired   uint64 // real (non-reentrant) monitor acquisitions
	ObjectsLocked   uint64 // unique objects whose monitor was ever acquired
	LargestLASN     uint64 // max lock acquire sequence number
	Reschedules     uint64 // context switches (different thread dispatched)
	NativeCalls     uint64 // all native invocations
	NMIntercepted   uint64 // intercepted native invocations (§4.1)
	NMOutputCommits uint64 // output-commit events (§3.4)
	ThreadsSpawned  uint64
	WaitOps         uint64
	NotifyOps       uint64
	GCs             uint64
	FinalizersRun   uint64
}

// Config configures a VM.
type Config struct {
	// Program is the verified program to execute (required).
	Program *bytecode.Program
	// Env is the simulated environment (required).
	Env *env.Env
	// Natives is the native-method registry (native.StdLib() if nil).
	Natives *native.Registry
	// Coordinator supplies replica coordination (standalone default if nil).
	Coordinator Coordinator
	// GCThreshold triggers automatic collection at this live-object count
	// (default 1<<20; negative disables automatic GC).
	GCThreshold int
	// MaxInstructions aborts runaway programs (0 = unlimited).
	MaxInstructions uint64
	// TrackProgress makes the interpreter maintain each thread's
	// control-path checksum (Thread.Progress.Chk, folded once per counted
	// branch) — the bookkeeping replicated thread scheduling requires. The
	// paper updates the whole progress record after every bytecode (§4.2)
	// because its interpreter can be preempted anywhere; here threads are
	// only descheduled flushed, at block edges and blocking operations, and
	// the rest of the record is read off them there.
	//
	// Product code does not set it: the two places that know whether a run
	// replicates scheduling decide — replication.Primary.NewVM for a primary
	// and replication.ReplayEngine.NewVM for every replay. The field stays
	// exported only because benchmark/ builds tracked standalone VMs with it
	// (ROADMAP item 1d removes it in a benchmark PR).
	TrackProgress bool
	// Dispatch selects the stream the engine runs: DispatchThreaded (default)
	// runs wide-fused superinstruction blocks under the epoch-based branch
	// counter; DispatchSwitch steps the unfused stream, one bytecode and one
	// round of checks at a time. Both are bit-identical on every
	// replication-visible surface (see threaded.go).
	Dispatch Dispatch
	// PairCounter, when non-nil, records every executed opcode pair into the
	// counter. Counting steps the unfused stream regardless of Dispatch (the
	// dynamic pair stream feeds the fusion table and the cold table, so it
	// must see original opcodes), making it a profiling mode, not a serving
	// mode.
	PairCounter *pairfreq.Counter
}

// Errors returned by Run.
var (
	ErrHalted        = errors.New("vm already ran")
	ErrInstrBudget   = errors.New("instruction budget exhausted")
	ErrBadNativeBind = errors.New("native method binding mismatch")
)

// FatalError is a fatal run-time-environment error (R0): it aborts the VM
// and is deliberately NOT replicated to the backup.
type FatalError struct {
	TID string
	PC  int32
	Err error
}

func (e *FatalError) Error() string {
	return fmt.Sprintf("fatal vm error (thread %s, pc %d): %v", e.TID, e.PC, e.Err)
}

func (e *FatalError) Unwrap() error { return e.Err }

// VM is one replica: a set of BEEs over a shared heap, statics, monitors and
// an environment attachment.
type VM struct {
	prog    *bytecode.Program
	hp      *heap.Heap
	environ *env.Env
	proc    *env.Process
	natives *native.Registry
	coord   Coordinator

	statics []heap.Value
	threads []*Thread
	// monitors is the monitor table; an object's header (heap.Object.Mon)
	// holds its monitor's index plus one. runGC compacts it.
	monitors []*Monitor

	joinIdx   int32
	finishIdx int32

	handlerState map[string]any

	// rcode is the decode-once form of prog: per-method resolved code, one
	// op per bytecode, index-aligned with prog.Methods (nil for natives) —
	// what the step stream was compiled from; the pair profiler reads
	// opcodes off it. interned holds the pre-allocated heap string for every
	// StrPool entry, so executing sconst never allocates.
	rcode    [][]bytecode.RInstr
	interned []heap.Ref

	cur           *Thread
	halted        bool
	ran           bool
	trackProgress bool
	killed        atomic.Bool
	runErr        error
	instrCap      uint64
	stats         Stats

	// dispatch selects the stream; tcode is the closure compilation of both
	// (the fused one only when dispatch is DispatchThreaded). tc is the
	// reusable execution context.
	dispatch Dispatch
	tcode    []tmethod
	tc       tctx
	// nctx is the reusable native-call context (DirectNative).
	nctx nativeCtx

	// pairs, when set, steps every slice, counting (see Config.PairCounter).
	pairs *pairfreq.Counter
}

// New builds a VM for cfg. The program is augmented with the synthetic
// $joinwait/$finish methods that route thread join and death through
// ordinary monitors, so they replicate exactly like application
// synchronization.
func New(cfg Config) (*VM, error) {
	if cfg.Program == nil {
		return nil, errors.New("vm: nil program")
	}
	if cfg.Env == nil {
		return nil, errors.New("vm: nil environment")
	}
	reg := cfg.Natives
	if reg == nil {
		reg = native.StdLib()
	}
	coord := cfg.Coordinator
	if coord == nil {
		coord = NewDefaultCoordinator(nil)
	}
	prog, joinIdx, finishIdx := augment(cfg.Program)
	if err := bindNatives(prog, reg); err != nil {
		return nil, err
	}
	threshold := cfg.GCThreshold
	if threshold == 0 {
		threshold = 1 << 20
	}
	if threshold < 0 {
		threshold = 0
	}
	v := &VM{
		prog:         prog,
		hp:           heap.New(heap.WithGCThreshold(threshold)),
		environ:      cfg.Env,
		proc:         cfg.Env.Attach(),
		natives:      reg,
		coord:        coord,
		joinIdx:      joinIdx,
		finishIdx:    finishIdx,
		handlerState: make(map[string]any),
		instrCap:     cfg.MaxInstructions,
	}
	v.trackProgress = cfg.TrackProgress
	v.dispatch = cfg.Dispatch
	v.pairs = cfg.PairCounter
	v.statics = make([]heap.Value, len(prog.Statics))
	for i := range v.statics {
		v.statics[i] = heap.Null()
	}
	res, err := bytecode.Predecode(prog)
	if err != nil {
		return nil, err
	}
	v.rcode = res.Methods
	// Pre-intern the string pool: one allocation per program string at load
	// time, zero per sconst execution. The interned objects are permanent GC
	// roots (see runGC).
	v.interned = make([]heap.Ref, len(prog.StrPool))
	for i, s := range prog.StrPool {
		ref, err := v.hp.AllocString(s)
		if err != nil {
			return nil, err
		}
		v.interned[i] = ref
	}
	// Compile after interning: sconst closures capture the interned refs
	// directly.
	v.tcode = v.compileThreaded(res)
	return v, nil
}

// augment clones p and appends the synthetic methods.
func augment(p *bytecode.Program) (*bytecode.Program, int32, int32) {
	clone := *p
	clone.Methods = make([]*bytecode.Method, len(p.Methods), len(p.Methods)+2)
	copy(clone.Methods, p.Methods)

	joinIdx := int32(len(clone.Methods))
	clone.Methods = append(clone.Methods, &bytecode.Method{
		Name: "$joinwait", NArgs: 1, NLocals: 1,
		Code: []bytecode.Instr{
			{Op: bytecode.OpLoad, A: 0}, // 0
			{Op: bytecode.OpMEnter},     // 1
			{Op: bytecode.OpLoad, A: 0}, // 2: check
			{Op: bytecode.OpAlive},      // 3
			{Op: bytecode.OpJz, A: 8},   // 4 -> exit
			{Op: bytecode.OpLoad, A: 0}, // 5
			{Op: bytecode.OpWait},       // 6
			{Op: bytecode.OpJmp, A: 2},  // 7 -> check
			{Op: bytecode.OpLoad, A: 0}, // 8: exit
			{Op: bytecode.OpMExit},      // 9
			{Op: bytecode.OpRet},        // 10
		},
	})
	finishIdx := int32(len(clone.Methods))
	clone.Methods = append(clone.Methods, &bytecode.Method{
		Name: "$finish", NArgs: 1, NLocals: 1,
		Code: []bytecode.Instr{
			{Op: bytecode.OpLoad, A: 0},
			{Op: bytecode.OpMEnter},
			{Op: bytecode.OpMarkDead},
			{Op: bytecode.OpLoad, A: 0},
			{Op: bytecode.OpNotifyAll},
			{Op: bytecode.OpLoad, A: 0},
			{Op: bytecode.OpMExit},
			{Op: bytecode.OpRet},
		},
	})
	return &clone, joinIdx, finishIdx
}

// bindNatives checks every native stub against the registry.
func bindNatives(p *bytecode.Program, reg *native.Registry) error {
	for _, m := range p.Methods {
		if !m.Native {
			continue
		}
		def, ok := reg.Lookup(m.NativeSig)
		if !ok {
			return fmt.Errorf("%w: %s: %v %q", ErrBadNativeBind, m.Name, native.ErrUnknownNative, m.NativeSig)
		}
		if def.Arity != m.NArgs {
			return fmt.Errorf("%w: %s: arity %d vs native %d", ErrBadNativeBind, m.Name, m.NArgs, def.Arity)
		}
		want := 0
		if m.Returns {
			want = 1
		}
		if def.Returns != want {
			return fmt.Errorf("%w: %s: returns %d vs native %d", ErrBadNativeBind, m.Name, want, def.Returns)
		}
		if def.AcquiresLocks && reg.Intercepted(def.Sig) {
			return fmt.Errorf("%w: %s: a native cannot be both intercepted and lock-acquiring", ErrBadNativeBind, m.Name)
		}
	}
	return nil
}

// Program returns the (augmented) program under execution.
func (vm *VM) Program() *bytecode.Program { return vm.prog }

// Heap returns the object heap.
func (vm *VM) Heap() *heap.Heap { return vm.hp }

// Environment returns the shared environment.
func (vm *VM) Environment() *env.Env { return vm.environ }

// Process returns the volatile environment attachment.
func (vm *VM) Process() *env.Process { return vm.proc }

// Natives returns the native registry.
func (vm *VM) Natives() *native.Registry { return vm.natives }

// Stats returns a copy of the run counters.
func (vm *VM) Stats() Stats { return vm.stats }

// Threads returns the thread table (live view; do not mutate).
func (vm *VM) Threads() []*Thread { return vm.threads }

// ThreadByVTID resolves a virtual thread id.
func (vm *VM) ThreadByVTID(vtid string) *Thread {
	for _, t := range vm.threads {
		if t.VTID == vtid {
			return t
		}
	}
	return nil
}

// Statics returns the static slot values (live view).
func (vm *VM) Statics() []heap.Value { return vm.statics }

// Ungate makes a replay-gated thread runnable again; it re-executes its
// pending acquisition, re-consulting the coordinator.
func (vm *VM) Ungate(t *Thread) {
	if t.state == StateGated {
		t.state = StateRunnable
	}
}

// SetHandlerState installs side-effect-handler state visible to natives.
func (vm *VM) SetHandlerState(name string, state any) { vm.handlerState[name] = state }

// Kill simulates a fail-stop failure: the VM stops executing at the next
// instruction boundary and its volatile environment state is discarded.
// It is safe to call from another goroutine.
func (vm *VM) Kill() { vm.killed.Store(true) }

// Killed reports whether Kill was called.
func (vm *VM) Killed() bool { return vm.killed.Load() }

// newThread creates and registers a thread executing method with args.
func (vm *VM) newThread(parent *Thread, method int32, args []heap.Value) (*Thread, error) {
	slot := int32(len(vm.threads))
	vtid := "0"
	if parent != nil {
		vtid = childVTID(parent)
	}
	ref, err := vm.hp.AllocThread(slot)
	if err != nil {
		return nil, err
	}
	t := &Thread{Slot: slot, VTID: vtid, Ref: ref, state: StateRunnable,
		Progress: ProgressSnapshot{Chk: fnvOffset64}}
	t.pushFrame(vm.prog.Methods[method], method, args)
	vm.threads = append(vm.threads, t)
	if parent != nil {
		vm.stats.ThreadsSpawned++
	}
	return t, nil
}

// Run executes the program to completion (all threads dead or OpHalt) and
// returns the first fatal error, if any. A VM can run only once.
func (vm *VM) Run() error {
	if vm.ran {
		return ErrHalted
	}
	vm.ran = true
	if _, err := vm.newThread(nil, vm.prog.Entry, nil); err != nil {
		return fmt.Errorf("spawn main: %w", err)
	}
	vm.runErr = vm.loop()
	if cerr := vm.coord.OnHalt(vm, vm.runErr); cerr != nil && vm.runErr == nil {
		vm.runErr = cerr
	}
	return vm.runErr
}

func (vm *VM) loop() error {
	var runnable []*Thread
	for !vm.halted && !vm.killed.Load() {
		if _, err := vm.coord.Poll(vm); err != nil {
			return err
		}
		runnable = runnable[:0]
		allDead := true
		for _, t := range vm.threads {
			switch t.state {
			case StateRunnable:
				runnable = append(runnable, t)
				allDead = false
			case StateDead:
			default:
				allDead = false
			}
		}
		if allDead {
			return nil
		}
		if len(runnable) == 0 {
			retry, err := vm.coord.OnIdle(vm)
			if err != nil {
				return err
			}
			if !retry {
				return vm.deadlockError()
			}
			continue
		}
		next, target, err := vm.coord.PickNext(vm, runnable, vm.cur)
		if err != nil {
			return err
		}
		if next == nil {
			// No dispatch allowed right now (replay waiting for records).
			retry, err := vm.coord.OnIdle(vm)
			if err != nil {
				return err
			}
			if !retry {
				return vm.deadlockError()
			}
			continue
		}
		if next != vm.cur {
			if err := vm.coord.OnDescheduled(vm, vm.cur, next); err != nil {
				return err
			}
			if vm.cur != nil {
				vm.stats.Reschedules++
			}
		}
		vm.cur = next
		if err := vm.dispatchSlice(next, target); err != nil {
			return err
		}
	}
	return nil
}

func (vm *VM) deadlockError() error {
	var detail strings.Builder
	for _, t := range vm.threads {
		if t.state != StateDead {
			fmt.Fprintf(&detail, " [%s %s", t.VTID, t.state)
			if t.blockedOn != nil {
				fmt.Fprintf(&detail, " on lid=%d @%d", t.blockedOn.LID, t.blockedOn.Ref)
			}
			detail.WriteByte(']')
		}
	}
	return fmt.Errorf("%w:%s", ErrDeadlock, detail.String())
}

func (vm *VM) fatal(t *Thread, err error) error {
	vm.halted = true
	var pc int32 = -1
	if f := t.Top(); f != nil {
		pc = f.PC
	}
	return &FatalError{TID: t.VTID, PC: pc, Err: err}
}

// RunGC is the synchronous collection entry point used by the sys.gc native.
func (vm *VM) RunGC(t *Thread) error { return vm.runGC(t) }

// runGC collects garbage and schedules pending finalizers on t.
func (vm *VM) runGC(t *Thread) error {
	vm.stats.GCs++
	vm.hp.GC(func(mark func(heap.Ref)) {
		for _, r := range vm.interned {
			mark(r)
		}
		for _, s := range vm.statics {
			if s.Kind == heap.KindRef {
				mark(s.R())
			}
		}
		for _, th := range vm.threads {
			mark(th.Ref)
			for fi := range th.frames {
				f := &th.frames[fi]
				for _, v := range f.Locals {
					if v.Kind == heap.KindRef {
						mark(v.R())
					}
				}
				for _, v := range f.Stack {
					if v.Kind == heap.KindRef {
						mark(v.R())
					}
				}
			}
		}
		for _, m := range vm.monitors {
			if m.owner != nil || len(m.queue) > 0 || len(m.waitSet) > 0 {
				mark(m.Ref)
			}
		}
	})
	vm.compactMonitors()
	// Run finalizers on the triggering thread, in deterministic queue order
	// (frames are LIFO, so push in reverse).
	queue := vm.hp.DrainFinalizeQueue()
	for i := len(queue) - 1; i >= 0; i-- {
		ref := queue[i]
		obj, err := vm.hp.Get(ref)
		if err != nil {
			return fmt.Errorf("finalize @%d: %w", ref, err)
		}
		if obj.Kind != heap.ObjRecord || obj.Class < 0 {
			continue
		}
		fin := vm.prog.Classes[obj.Class].Finalizer
		if fin < 0 {
			continue
		}
		t.pushFrame(vm.prog.Methods[fin], fin, []heap.Value{heap.RefVal(ref)})
		t.frames[len(t.frames)-1].finalizer = true
		t.finalizerDepth++
		vm.stats.FinalizersRun++
	}
	return nil
}
