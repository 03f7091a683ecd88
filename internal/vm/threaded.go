package vm

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/heap"
)

// The engine: subroutine threading. One engine, two streams, one driver.
//
// Each predecoded method is compiled once, at VM construction, into arrays of
// per-slot closures indexed by pc exactly like the RInstr stream they were
// compiled from: tmethod.code from Resolved.Wide (the wide-fusion
// superinstruction stream) and tmethod.step from Resolved.Methods (one
// closure per bytecode). The driver (runThreaded) executes a basic block of
// the fused stream (runBlock) as
//
//	for code[c.pc](c) {}
//
// so straight-line code pays one indirect call per superinstruction group and
// nothing else: no opcode switch, no per-instruction kill/budget/replay
// checks. A closure returns true to stay in the block and false at a
// boundary — a branch was executed, the op needs the outer loop (frame
// change, blocking or gating, possible GC), or it faulted. A monitor op that
// completes — an acquire granted at once, a release — is no boundary: it
// neither counts a branch nor leaves the loop (monStep).
//
// A tracked VM (Config.TrackProgress) differs only in its branch-flagged
// slots, which fold the control-path checksum: a jump or conditional branch
// folds the position it took, fixed at compile time (site), and the ops whose
// destination is known only once they ran are wrapped in trackBranch.
//
// Three kinds of closure fill the slots: wide groups (compileWide), pairs
// (compilePair) and single opcodes. A single opcode gets its own closure in
// compileBase unless it is in the cold table (cold.go: measured rare in every
// benchmark program); those share one generic closure (compileCold) over one
// body. The step stream holds single opcodes only.
//
// Epoch-based branch counter. On the fused stream the kill flag, the
// preemption target and the instruction budget are checked only at block
// boundaries (every loop contains a branch, so the latency is bounded). A
// thread is therefore only ever descheduled with its frame flushed at a block
// edge or a blocking op, which is where the §4.2 progress indicators are read
// off it (see ProgressSnapshot). Within a block br_cnt cannot change (only
// branch-flagged instructions bump it, and every branch ends its block), and
// budget targets lie strictly above the entry br_cnt, so the block-boundary
// check stops the slice at exactly the instruction a per-instruction check
// would. Two cases genuinely need per-instruction resolution, and for both
// the driver moves to the step stream at a boundary and stays on it for the
// rest of the slice, running one closure per iteration with the checks
// written once, in runThreaded:
//
//   - exact replay epochs: while t.BrCnt < target.Br no stop position can
//     match, so the fused stream runs freely; from the boundary that reaches
//     the recorded branch count on, the (method, pc) stop check runs before
//     every instruction. A wide group's interior is a stop position only
//     here — the fused stream never stops inside a group;
//   - budget exhaustion: when fewer than one method body's worth of budget
//     remains (tmethod.margin), the tail is stepped and ErrInstrBudget is
//     raised at exactly cap+1 executed instructions.
//
// A DispatchSwitch VM and a pair-profiling one (Config.PairCounter) step
// every slice from its first instruction. Both streams are index-aligned and
// every slot of the fused stream is executable, so a later slice may resume
// on the fused stream wherever a stepped one stopped.
//
// Fault identity. A wide group or pair that faults materializes the unfused
// state first — the lead pushes it folded, the pc of the faulting
// instruction, the instructions completed before the fault — so a fatal error
// reports the same position and counters as the step stream.

// tclosure executes one resolved instruction (or superinstruction group).
// It returns true to continue the current basic block, false at a boundary.
type tclosure func(c *tctx) bool

// tmethod is one method's compilation: the fused stream (nil on a
// DispatchSwitch VM) and the step stream.
type tmethod struct {
	code, step []tclosure
	// margin is the near-budget stepping threshold: one straight-line pass
	// cannot execute more than len(code) instructions, so while
	// icnt+margin <= cap the block cannot exhaust the budget.
	margin uint64
}

// tctx is the execution state the closure bodies keep in registers. One per
// VM, reused across slices (the hot loop allocates nothing).
type tctx struct {
	vm     *VM
	t      *Thread
	f      *Frame
	locals []heap.Value
	stack  []heap.Value
	pc     int32
	icnt   uint64
	err    error
	// brk: leave the inner loop after this boundary (frame change, blocking or
	// gating, allocation that tripped the GC threshold, yield, halt).
	brk bool
	// flushed: the frame already holds the truth; the driver must not write
	// the cached pc/stack back (they may be stale after a frame change).
	flushed bool
	// branch: the boundary was caused by a branch-counted instruction.
	branch bool
	// brTarget/icap are the slice's epoch limits, hoisted so pure branch
	// closures can stay inside the dispatch loop: brTarget is target.Br, icap
	// the near-budget stepping threshold (cap minus the method margin).
	brTarget uint64
	icap     uint64
}

// branchTick counts a branch: before the instruction executes, so an op that
// rolls its call back (doCall) can undo it.
func (c *tctx) branchTick() {
	c.t.BrCnt++
	c.vm.stats.Branches++
	c.branch = true
}

// step finishes a successfully executed single instruction. exit=true ends
// the block (branch or brk op).
func (c *tctx) step(exit bool) bool {
	c.icnt++
	return !exit
}

// contBr is the epoch check at a pure branch boundary. Nothing outside the
// interpreter can observe state between branches unless the slice target or
// the budget epoch arrived, or a kill was requested — so when none of those
// hold, execution stays inside the dispatch loop and the whole check costs
// two compares and the kill poll. Ops that change frames, allocate or fault
// always exit to the driver instead; a monitor op exits only when it blocked
// or gated the thread (monStep).
func (c *tctx) contBr() bool {
	return c.t.BrCnt < c.brTarget && c.icnt <= c.icap && !c.vm.killed.Load()
}

// monStep finishes a monitor op that completed — an acquire granted at once,
// or a release. It is no branch and no boundary: the block goes on while the
// thread is still runnable, with no trip to the driver and no flush. A kill
// that arrived while it ran (an acquisition's record send can fire one) still
// stops the thread at this op, as a boundary would.
func (c *tctx) monStep() bool {
	c.icnt++
	if c.t.state == StateRunnable && !c.vm.killed.Load() {
		return true
	}
	c.brk = true
	return false
}

// stepBr finishes a successfully executed single branch instruction.
func (c *tctx) stepBr() bool {
	c.icnt++
	return c.contBr()
}

// site is what a jump or conditional branch closure knows, from compile time,
// of the positions it can leave the thread at: their method (the pc is the
// target or the slot after the group), and the VM's TrackProgress.
type site struct {
	method int32
	track  bool
}

// fold folds the position (s.method, pc) into the control-path checksum on a
// tracked VM. A branch calls it once its tick stands and it has moved the pc
// there; a faulting branch returns before it. Each arm of a conditional branch
// moves the pc and folds on its own: a pc picked by a conditional move after
// the comparison made the next dispatch wait for it instead of for branch
// prediction (untracked compress ran about 5 % slower).
func (c *tctx) fold(s site, pc int32) {
	if s.track {
		c.t.Progress.fold(posKey(s.method, pc))
	}
}

// trackBranch wraps, on a tracked VM, a branch-flagged closure whose
// destination is known only once it ran: a call (a native callee may be
// gated, or rolled back when its monitor is contended), a return, and the
// cold branch ops (spawn, join). When the instruction's br_cnt tick stands (no
// fault, no rollback) it folds the thread's top frame, which every such op
// has flushed.
func (vm *VM) trackBranch(in bytecode.RInstr, op tclosure) tclosure {
	if !vm.trackProgress || !in.Branch {
		return op
	}
	return func(c *tctx) bool {
		t := c.t
		br := t.BrCnt
		cont := op(c)
		if c.err == nil && t.BrCnt != br {
			t.foldTop()
		}
		return cont
	}
}

// runThreaded executes one scheduling slice. step selects the stream: false
// runs fused blocks, true runs the step stream one closure at a time; within
// a slice it only ever turns on, and only at the dispatch boundary. After a
// block or a stepped instruction the cached pc/stack and the instruction
// count are written back first, so whatever follows (a stop, a fault, a GC)
// sees the thread as it stands; the checks then run in one order — error,
// pair tick, budget, kill, preemption target, yield, brk — and this function
// is the only place they are written.
func (vm *VM) runThreaded(t *Thread, target SliceTarget) error {
	capv := vm.instrCap
	if capv == 0 {
		capv = ^uint64(0)
	}
	c := &vm.tc
	c.vm = vm
	c.t = t
	c.icnt = vm.stats.Instructions
	c.brTarget = target.Br
	step := vm.dispatch == DispatchSwitch || vm.pairs != nil
	// prevOp threads the dynamic opcode-pair profile (Config.PairCounter)
	// through the slice: consecutive executed instructions, reset per slice.
	prevOp := bytecode.OpInvalid
	for {
		if vm.halted || t.state != StateRunnable || vm.killed.Load() {
			return nil
		}
		if target.Exact && t.BrCnt >= target.Br {
			// Inside the stop epoch (or past it): the rest of the slice is
			// stepped, and stops where the thread sits at the recorded
			// position while still runnable.
			step = true
			if f := t.Top(); target.StopRunnable && t.BrCnt == target.Br && f.Method == target.Method && f.PC == target.PC {
				return nil
			}
		}
		if vm.hp.NeedsGC() {
			if err := vm.runGC(t); err != nil {
				return vm.fatal(t, err)
			}
		}
		f := &t.frames[len(t.frames)-1]
		tm, ops := &vm.tcode[f.Method], vm.rcode[f.Method]
		if c.icnt+tm.margin > capv {
			// Near the instruction budget: the per-instruction check decides
			// the exact faulting instruction.
			step = true
		}
		c.icap = capv - tm.margin
		c.f = f
		c.locals = f.Locals
		c.stack = f.Stack
		c.pc = f.PC
		code := tm.code
		if step {
			code = tm.step
		}
		for {
			pc := c.pc
			if step {
				code[pc](c)
			} else {
				runBlock(code, c)
			}
			// An op that flushed may have changed the frame stack under f.
			if !c.flushed {
				f.PC, f.Stack = c.pc, c.stack
			}
			vm.stats.Instructions = c.icnt
			brk, branch := c.brk, c.branch
			c.flushed, c.brk, c.branch = false, false, false
			if c.err != nil {
				err := c.err
				c.err = nil
				return vm.fatal(t, err)
			}
			if step {
				if vm.pairs != nil {
					op := ops[pc].Op
					if prevOp != bytecode.OpInvalid {
						vm.pairs.Add(prevOp, op)
					}
					prevOp = op
				}
				if c.icnt > capv {
					return vm.fatal(t, ErrInstrBudget)
				}
			}
			if vm.killed.Load() {
				return nil
			}
			if target.Exact {
				if t.BrCnt > target.Br {
					// Ran past the recorded switch point: let the coordinator
					// diagnose the divergence at the next dispatch.
					return nil
				}
			} else if branch && t.BrCnt >= target.Br {
				return nil
			}
			if t.yielded {
				t.yielded = false
				return nil
			}
			// Back to the boundary: the op needs it; or an exact slice is in its
			// stop epoch, where step turns on and the stop check then precedes
			// every instruction; or the budget is near, where step turns on.
			if brk || target.Exact && (step || t.BrCnt >= target.Br) || c.icnt+tm.margin > capv {
				break
			}
		}
	}
}

// runBlock runs closures until one ends the block. It is a function of its
// own, never inlined, so that the dispatch loop keeps two values in registers
// across each indirect call instead of everything runThreaded has live.
//
//go:noinline
func runBlock(code []tclosure, c *tctx) {
	for code[c.pc](c) {
	}
}

// compileThreaded compiles the resolved streams (per-method, index-aligned
// with prog.Methods; nil for natives) into closure arrays: the step stream
// always, the fused stream when Dispatch selects it.
func (vm *VM) compileThreaded(res *bytecode.Resolved) []tmethod {
	out := make([]tmethod, len(res.Methods))
	for mi, code := range res.Methods {
		if code == nil {
			continue
		}
		out[mi] = tmethod{step: vm.compileStream(int32(mi), code), margin: uint64(len(code)) + 16}
		if vm.dispatch == DispatchThreaded {
			out[mi].code = vm.compileStream(int32(mi), res.Wide[mi])
		}
	}
	return out
}

// compileStream compiles one method's stream.
func (vm *VM) compileStream(method int32, code []bytecode.RInstr) []tclosure {
	cl := make([]tclosure, len(code))
	for pc := range code {
		cl[pc] = vm.compileOp(code[pc], method)
	}
	return cl
}

// aluFn returns the integer ALU function of a base opcode (wide-fusion set).
func aluFn(op bytecode.Opcode) func(a, b int64) int64 {
	switch op {
	case bytecode.OpIAdd:
		return func(a, b int64) int64 { return a + b }
	case bytecode.OpISub:
		return func(a, b int64) int64 { return a - b }
	case bytecode.OpIMul:
		return func(a, b int64) int64 { return a * b }
	case bytecode.OpIAnd:
		return func(a, b int64) int64 { return a & b }
	case bytecode.OpIOr:
		return func(a, b int64) int64 { return a | b }
	case bytecode.OpIXor:
		return func(a, b int64) int64 { return a ^ b }
	case bytecode.OpIShl:
		return func(a, b int64) int64 { return a << (uint64(b) & 63) }
	case bytecode.OpIShr:
		return func(a, b int64) int64 { return a >> (uint64(b) & 63) }
	default:
		panic("threaded: not a wide ALU op: " + op.String())
	}
}

// pairALU lists the pair-fusion tier's ALU set in fuseDelta allocation order
// (OpIAddC+d / OpIAddL+d): add, sub, mul, div, rem, and, or, xor, shl, shr,
// icmp. div marks the divide-by-zero fault path.
var pairALU = [...]struct {
	fn  func(a, b int64) int64
	div bool
}{
	{func(a, b int64) int64 { return a + b }, false},
	{func(a, b int64) int64 { return a - b }, false},
	{func(a, b int64) int64 { return a * b }, false},
	{func(a, b int64) int64 { return a / b }, true},
	{func(a, b int64) int64 { return a % b }, true},
	{func(a, b int64) int64 { return a & b }, false},
	{func(a, b int64) int64 { return a | b }, false},
	{func(a, b int64) int64 { return a ^ b }, false},
	{func(a, b int64) int64 { return a << (uint64(b) & 63) }, false},
	{func(a, b int64) int64 { return a >> (uint64(b) & 63) }, false},
	{cmpInt, false},
}

// relFn returns the boolean relation a compare idiom computes: the unfused
// icmp + arithmetic epilogue pushes exactly 1 when the relation holds and 0
// otherwise, so evaluating it directly is bit-identical.
func relFn(rel bytecode.WideRel) func(a, b int64) bool {
	switch rel {
	case bytecode.RelLt:
		return func(a, b int64) bool { return a < b }
	case bytecode.RelGe:
		return func(a, b int64) bool { return a >= b }
	case bytecode.RelGt:
		return func(a, b int64) bool { return a > b }
	case bytecode.RelLe:
		return func(a, b int64) bool { return a <= b }
	case bytecode.RelEq:
		return func(a, b int64) bool { return a == b }
	case bytecode.RelNe:
		return func(a, b int64) bool { return a != b }
	default:
		panic("threaded: no relation")
	}
}

// compileOp builds the closure for one resolved instruction of method.
func (vm *VM) compileOp(in bytecode.RInstr, method int32) tclosure {
	if wi, ok := bytecode.WideOpInfo(in.Op); ok {
		return vm.compileWide(in, wi, method)
	}
	if in.Op >= bytecode.OpIAddC && in.Op <= bytecode.OpICmpL {
		return compilePair(in)
	}
	if IsCold(in.Op) {
		return vm.trackBranch(in, compileCold(in))
	}
	return vm.compileBase(in, method)
}

// pairFault materializes the unfused state of a faulting pair, like the wide
// groups do: the folded push b executed (on the stack, counted, pc past it)
// and the ALU op behind it faulted with err.
func (c *tctx) pairFault(b heap.Value, err error) bool {
	c.stack = append(c.stack, b)
	c.pc++
	c.icnt++
	c.err = err
	return false
}

// compilePair builds the pair closures (iconst/load + ALU in one dispatch).
func compilePair(in bytecode.RInstr) tclosure {
	if in.Op >= bytecode.OpIAddL {
		p := pairALU[in.Op-bytecode.OpIAddL]
		slot := in.A
		fn, div := p.fn, p.div
		return func(c *tctx) bool {
			n := len(c.stack)
			a, b := c.stack[n-1], c.locals[slot]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				return c.pairFault(b, intOpErr(a, b))
			}
			if div && b.I == 0 {
				return c.pairFault(b, errDivByZero)
			}
			c.stack[n-1] = heap.IntVal(fn(a.I, b.I))
			c.pc += 2
			c.icnt += 2
			return true
		}
	}
	p := pairALU[in.Op-bytecode.OpIAddC]
	k := in.I
	fn, div := p.fn, p.div
	return func(c *tctx) bool {
		n := len(c.stack)
		a := c.stack[n-1]
		if a.Kind != heap.KindInt {
			return c.pairFault(heap.IntVal(k), notInt(a))
		}
		if div && k == 0 {
			return c.pairFault(heap.IntVal(k), errDivByZero)
		}
		c.stack[n-1] = heap.IntVal(fn(a.I, k))
		c.pc += 2
		c.icnt += 2
		return true
	}
}

// compileWide builds the wide superinstruction closures. Success paths fold
// the whole group into one dispatch and count its full width; fault paths
// materialize the unfused state (lead pushes, faulting pc, completed count)
// so fatal errors are indistinguishable from the faithful stream's.
func (vm *VM) compileWide(in bytecode.RInstr, wi bytecode.WideInfo, method int32) tclosure {
	w := uint64(wi.Width)
	switch wi.Shape {
	case bytecode.WShapeLC:
		slot, k := in.A, heap.IntVal(in.I)
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.locals[slot], k)
			c.pc += 2
			c.icnt += 2
			return true
		}
	case bytecode.WShapeLL:
		sa, sb := in.A, in.B
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.locals[sa], c.locals[sb])
			c.pc += 2
			c.icnt += 2
			return true
		}
	case bytecode.WShapeGetsL:
		gs, slot := in.A, in.B
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.vm.statics[gs], c.locals[slot])
			c.pc += 2
			c.icnt += 2
			return true
		}
	case bytecode.WShapeLGets:
		slot, gs := in.A, in.B
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.locals[slot], c.vm.statics[gs])
			c.pc += 2
			c.icnt += 2
			return true
		}
	case bytecode.WShapeStL:
		st, ld := in.A, in.B
		return func(c *tctx) bool {
			n := len(c.stack) - 1
			c.locals[st] = c.stack[n]
			c.stack[n] = c.locals[ld]
			c.pc += 2
			c.icnt += 2
			return true
		}
	case bytecode.WShapeStJmp:
		st, tgt, s := in.A, in.B, site{method, vm.trackProgress}
		return func(c *tctx) bool {
			n := len(c.stack) - 1
			c.locals[st] = c.stack[n]
			c.stack = c.stack[:n]
			c.branchTick()
			c.pc = tgt
			c.fold(s, tgt)
			c.icnt += 2
			return c.contBr()
		}
	case bytecode.WShapeAluSt:
		fn, st := aluFn(wi.ALU), in.A
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.err = intOpErr(a, b)
				return false
			}
			c.locals[st] = heap.IntVal(fn(a.I, b.I))
			c.stack = c.stack[:n-2]
			c.pc += 2
			c.icnt += 2
			return true
		}
	case bytecode.WShapeLCAlu:
		fn, slot, k := aluFn(wi.ALU), in.A, in.I
		kv := heap.IntVal(k)
		return func(c *tctx) bool {
			a := c.locals[slot]
			if a.Kind != heap.KindInt {
				c.stack = append(c.stack, a, kv)
				c.pc += 2
				c.icnt += 2
				c.err = notInt(a)
				return false
			}
			c.stack = append(c.stack, heap.IntVal(fn(a.I, k)))
			c.pc += 3
			c.icnt += 3
			return true
		}
	case bytecode.WShapeLLAlu:
		fn, sa, sb := aluFn(wi.ALU), in.A, in.B
		return func(c *tctx) bool {
			a, b := c.locals[sa], c.locals[sb]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.stack = append(c.stack, a, b)
				c.pc += 2
				c.icnt += 2
				c.err = intOpErr(a, b)
				return false
			}
			c.stack = append(c.stack, heap.IntVal(fn(a.I, b.I)))
			c.pc += 3
			c.icnt += 3
			return true
		}
	case bytecode.WShapeCAluSt:
		fn, k, st := aluFn(wi.ALU), in.I, in.A
		kv := heap.IntVal(k)
		return func(c *tctx) bool {
			n := len(c.stack)
			a := c.stack[n-1]
			if a.Kind != heap.KindInt {
				c.stack = append(c.stack, kv)
				c.pc++
				c.icnt++
				c.err = notInt(a)
				return false
			}
			c.locals[st] = heap.IntVal(fn(a.I, k))
			c.stack = c.stack[:n-1]
			c.pc += 3
			c.icnt += 3
			return true
		}
	case bytecode.WShapeLAluSt:
		fn, ld, st := aluFn(wi.ALU), in.B, in.A
		return func(c *tctx) bool {
			n := len(c.stack)
			a, b := c.stack[n-1], c.locals[ld]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.stack = append(c.stack, b)
				c.pc++
				c.icnt++
				c.err = intOpErr(a, b)
				return false
			}
			c.stack[n-1] = heap.IntVal(fn(a.I, b.I))
			c.locals[st] = c.stack[n-1]
			c.stack = c.stack[:n-1]
			c.pc += 3
			c.icnt += 3
			return true
		}
	case bytecode.WShapeLCAluSt:
		fn, slot, k, st := aluFn(wi.ALU), in.A, in.I, in.B
		kv := heap.IntVal(k)
		return func(c *tctx) bool {
			a := c.locals[slot]
			if a.Kind != heap.KindInt {
				c.stack = append(c.stack, a, kv)
				c.pc += 2
				c.icnt += 2
				c.err = notInt(a)
				return false
			}
			c.locals[st] = heap.IntVal(fn(a.I, k))
			c.pc += 4
			c.icnt += 4
			return true
		}
	case bytecode.WShapeLLAluSt:
		fn, sa, sb, st := aluFn(wi.ALU), in.A, in.B, int32(in.I)
		return func(c *tctx) bool {
			a, b := c.locals[sa], c.locals[sb]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.stack = append(c.stack, a, b)
				c.pc += 2
				c.icnt += 2
				c.err = intOpErr(a, b)
				return false
			}
			c.locals[st] = heap.IntVal(fn(a.I, b.I))
			c.pc += 4
			c.icnt += 4
			return true
		}
	case bytecode.WShapeCmpBr:
		rel, jnz, tgt, s := relFn(wi.Rel), wi.JmpNZ, in.A, site{method, vm.trackProgress}
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.err = intOpErr(a, b)
				return false
			}
			c.stack = c.stack[:n-2]
			c.branchTick()
			if rel(a.I, b.I) == jnz {
				c.pc = tgt
				c.fold(s, tgt)
			} else {
				c.pc += int32(w)
				c.fold(s, c.pc)
			}
			c.icnt += w
			return c.contBr()
		}
	case bytecode.WShapeCmpV:
		rel := relFn(wi.Rel)
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.err = intOpErr(a, b)
				return false
			}
			c.stack[n-2] = heap.BoolVal(rel(a.I, b.I))
			c.stack = c.stack[:n-1]
			c.pc += int32(w)
			c.icnt += w
			return true
		}
	case bytecode.WShapeLCCmpBr:
		rel, jnz, slot, k, tgt := relFn(wi.Rel), wi.JmpNZ, in.A, in.I, in.B
		kv, s := heap.IntVal(k), site{method, vm.trackProgress}
		return func(c *tctx) bool {
			a := c.locals[slot]
			if a.Kind != heap.KindInt {
				c.stack = append(c.stack, a, kv)
				c.pc += 2
				c.icnt += 2
				c.err = notInt(a)
				return false
			}
			c.branchTick()
			if rel(a.I, k) == jnz {
				c.pc = tgt
				c.fold(s, tgt)
			} else {
				c.pc += int32(w)
				c.fold(s, c.pc)
			}
			c.icnt += w
			return c.contBr()
		}
	case bytecode.WShapeLLCmpBr:
		rel, jnz, sa, sb, tgt := relFn(wi.Rel), wi.JmpNZ, in.A, in.B, int32(in.I)
		s := site{method, vm.trackProgress}
		return func(c *tctx) bool {
			a, b := c.locals[sa], c.locals[sb]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.stack = append(c.stack, a, b)
				c.pc += 2
				c.icnt += 2
				c.err = intOpErr(a, b)
				return false
			}
			c.branchTick()
			if rel(a.I, b.I) == jnz {
				c.pc = tgt
				c.fold(s, tgt)
			} else {
				c.pc += int32(w)
				c.fold(s, c.pc)
			}
			c.icnt += w
			return c.contBr()
		}
	default:
		panic(fmt.Sprintf("threaded: unhandled wide shape %d", wi.Shape))
	}
}

// compileBase builds the closure for a base (unfused) opcode: its one body in
// the product, on either stream. step() supplies the shared count; everything
// else that follows an instruction is the driver's.
func (vm *VM) compileBase(in bytecode.RInstr, method int32) tclosure {
	switch in.Op {
	case bytecode.OpIConst:
		v := heap.IntVal(in.I)
		return func(c *tctx) bool {
			c.stack = append(c.stack, v)
			c.pc++
			return c.step(false)
		}
	case bytecode.OpFConst:
		v := heap.FloatVal(in.F)
		return func(c *tctx) bool {
			c.stack = append(c.stack, v)
			c.pc++
			return c.step(false)
		}
	case bytecode.OpSConst:
		// Pre-interned at load time (compileThreaded runs after interning):
		// the ref is captured here, so executing sconst never allocates.
		v := heap.RefVal(vm.interned[in.A])
		return func(c *tctx) bool {
			c.stack = append(c.stack, v)
			c.pc++
			return c.step(false)
		}
	case bytecode.OpNull:
		return func(c *tctx) bool {
			c.stack = append(c.stack, heap.Null())
			c.pc++
			return c.step(false)
		}
	case bytecode.OpDup:
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.stack[len(c.stack)-1])
			c.pc++
			return c.step(false)
		}

	case bytecode.OpLoad:
		slot := in.A
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.locals[slot])
			c.pc++
			return c.step(false)
		}
	case bytecode.OpStore:
		slot := in.A
		return func(c *tctx) bool {
			n := len(c.stack) - 1
			c.locals[slot] = c.stack[n]
			c.stack = c.stack[:n]
			c.pc++
			return c.step(false)
		}

	case bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul, bytecode.OpIAnd,
		bytecode.OpIOr, bytecode.OpIXor, bytecode.OpIShl, bytecode.OpIShr:
		fn := aluFn(in.Op)
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.err = intOpErr(a, b)
				return false
			}
			c.stack[n-2] = heap.IntVal(fn(a.I, b.I))
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}
	case bytecode.OpIDiv, bytecode.OpIRem:
		rem := in.Op == bytecode.OpIRem
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.err = intOpErr(a, b)
				return false
			}
			if b.I == 0 {
				c.err = errDivByZero
				return false
			}
			if rem {
				c.stack[n-2] = heap.IntVal(a.I % b.I)
			} else {
				c.stack[n-2] = heap.IntVal(a.I / b.I)
			}
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}
	case bytecode.OpINeg:
		return func(c *tctx) bool {
			n := len(c.stack)
			a := c.stack[n-1]
			if a.Kind != heap.KindInt {
				c.err = notInt(a)
				return false
			}
			c.stack[n-1] = heap.IntVal(-a.I)
			c.pc++
			return c.step(false)
		}

	case bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv:
		op := in.Op
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				c.err = floatOpErr(a, b)
				return false
			}
			var r float64
			switch op {
			case bytecode.OpFAdd:
				r = a.F() + b.F()
			case bytecode.OpFSub:
				r = a.F() - b.F()
			case bytecode.OpFMul:
				r = a.F() * b.F()
			default:
				r = a.F() / b.F()
			}
			c.stack[n-2] = heap.FloatVal(r)
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}

	case bytecode.OpI2F:
		return func(c *tctx) bool {
			n := len(c.stack)
			a := c.stack[n-1]
			if a.Kind != heap.KindInt {
				c.err = notInt(a)
				return false
			}
			c.stack[n-1] = heap.FloatVal(float64(a.I))
			c.pc++
			return c.step(false)
		}

	case bytecode.OpICmp:
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				c.err = intOpErr(a, b)
				return false
			}
			c.stack[n-2] = heap.IntVal(cmpInt(a.I, b.I))
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}
	case bytecode.OpFCmp:
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				c.err = floatOpErr(a, b)
				return false
			}
			var res int64
			switch {
			case a.F() < b.F():
				res = -1
			case a.F() > b.F():
				res = 1
			}
			c.stack[n-2] = heap.IntVal(res)
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}
	case bytecode.OpRefEq:
		return func(c *tctx) bool {
			n := len(c.stack)
			b, a := c.stack[n-1], c.stack[n-2]
			if b.Kind != heap.KindRef {
				c.err = notRef(b)
				return false
			}
			if a.Kind != heap.KindRef {
				c.err = notRef(a)
				return false
			}
			c.stack[n-2] = heap.BoolVal(a.R() == b.R())
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}

	case bytecode.OpJmp:
		tgt, s := in.A, site{method, vm.trackProgress}
		return func(c *tctx) bool {
			c.branchTick()
			c.pc = tgt
			c.fold(s, tgt)
			return c.stepBr()
		}
	case bytecode.OpJz, bytecode.OpJnz:
		tgt, nz, s := in.A, in.Op == bytecode.OpJnz, site{method, vm.trackProgress}
		return func(c *tctx) bool {
			c.branchTick()
			n := len(c.stack)
			v := c.stack[n-1]
			if v.Kind != heap.KindInt {
				c.err = notInt(v)
				return false
			}
			c.stack = c.stack[:n-1]
			if (v.I != 0) == nz {
				c.pc = tgt
				c.fold(s, tgt)
			} else {
				c.pc++
				c.fold(s, c.pc)
			}
			return c.stepBr()
		}

	case bytecode.OpCall:
		mi := in.A
		return vm.trackBranch(in, func(c *tctx) bool {
			c.branchTick()
			f := c.f
			f.PC, f.Stack = c.pc, c.stack
			c.flushed, c.brk = true, true
			if err := c.vm.doCall(c.t, f, mi); err != nil {
				c.err = err
				return false
			}
			return c.step(true)
		})
	case bytecode.OpRet, bytecode.OpRetV:
		hasVal := in.Op == bytecode.OpRetV
		return vm.trackBranch(in, func(c *tctx) bool {
			c.branchTick()
			f := c.f
			f.PC, f.Stack = c.pc, c.stack
			c.flushed, c.brk = true, true
			if err := c.vm.doReturn(c.t, hasVal); err != nil {
				c.err = err
				return false
			}
			return c.step(true)
		})

	case bytecode.OpGetF:
		fld := int(in.A)
		return func(c *tctx) bool {
			n := len(c.stack)
			rv := c.stack[n-1]
			if rv.Kind != heap.KindRef {
				c.err = notRef(rv)
				return false
			}
			v, gerr := c.vm.hp.GetField(rv.R(), fld)
			if gerr != nil {
				c.err = gerr
				return false
			}
			c.stack[n-1] = v
			c.pc++
			return c.step(false)
		}
	case bytecode.OpPutF:
		fld := int(in.A)
		return func(c *tctx) bool {
			n := len(c.stack)
			v, rv := c.stack[n-1], c.stack[n-2]
			if rv.Kind != heap.KindRef {
				c.err = notRef(rv)
				return false
			}
			if serr := c.vm.hp.SetField(rv.R(), fld, v); serr != nil {
				c.err = serr
				return false
			}
			c.stack = c.stack[:n-2]
			c.pc++
			return c.step(false)
		}
	case bytecode.OpGetS:
		slot := in.A
		return func(c *tctx) bool {
			c.stack = append(c.stack, c.vm.statics[slot])
			c.pc++
			return c.step(false)
		}

	case bytecode.OpALoad:
		return func(c *tctx) bool {
			n := len(c.stack)
			iv, rv := c.stack[n-1], c.stack[n-2]
			if iv.Kind != heap.KindInt {
				c.err = notInt(iv)
				return false
			}
			if rv.Kind != heap.KindRef {
				c.err = notRef(rv)
				return false
			}
			v, gerr := c.vm.hp.ArrGet(rv.R(), int(iv.I))
			if gerr != nil {
				c.err = gerr
				return false
			}
			c.stack[n-2] = v
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}
	case bytecode.OpAStore:
		return func(c *tctx) bool {
			n := len(c.stack)
			v, iv, rv := c.stack[n-1], c.stack[n-2], c.stack[n-3]
			if iv.Kind != heap.KindInt {
				c.err = notInt(iv)
				return false
			}
			if rv.Kind != heap.KindRef {
				c.err = notRef(rv)
				return false
			}
			if serr := c.vm.hp.ArrSet(rv.R(), int(iv.I), v); serr != nil {
				c.err = serr
				return false
			}
			c.stack = c.stack[:n-3]
			c.pc++
			return c.step(false)
		}

	case bytecode.OpSIdx:
		return func(c *tctx) bool {
			n := len(c.stack)
			iv := c.stack[n-1]
			if iv.Kind != heap.KindInt {
				c.err = notInt(iv)
				return false
			}
			s, serr := c.vm.strAt(c.stack[n-2])
			if serr != nil {
				c.err = serr
				return false
			}
			if iv.I < 0 || iv.I >= int64(len(s)) {
				c.err = fmt.Errorf("string index %d of %d: %w", iv.I, len(s), heap.ErrIndexOOB)
				return false
			}
			c.stack[n-2] = heap.IntVal(int64(s[iv.I]))
			c.stack = c.stack[:n-1]
			c.pc++
			return c.step(false)
		}

	case bytecode.OpMEnter:
		return func(c *tctx) bool {
			n := len(c.stack)
			rv := c.stack[n-1]
			if rv.Kind != heap.KindRef {
				c.err = notRef(rv)
				return false
			}
			done, merr := c.vm.monEnter(c.t, rv.R())
			if merr != nil {
				c.err = merr
				return false
			}
			if !done {
				// Blocked or gated: PC unchanged, re-execute on resume.
				c.brk = true
				return c.step(true)
			}
			c.stack = c.stack[:n-1]
			c.pc++
			return c.monStep()
		}
	case bytecode.OpMExit:
		return func(c *tctx) bool {
			n := len(c.stack)
			rv := c.stack[n-1]
			if rv.Kind != heap.KindRef {
				c.err = notRef(rv)
				return false
			}
			c.stack = c.stack[:n-1]
			if merr := c.vm.monExit(c.t, rv.R()); merr != nil {
				c.err = merr
				return false
			}
			c.pc++
			return c.monStep()
		}

	default:
		err := fmt.Errorf("unimplemented opcode %s", in.Op)
		return func(c *tctx) bool {
			c.err = err
			return false
		}
	}
}

// compileCold builds the one generic closure every cold opcode (cold.go) gets:
// flush the cached pc/stack, run the shared body on the frame, reload. in is
// captured once here, so executing the closure allocates nothing.
func compileCold(in bytecode.RInstr) tclosure {
	return func(c *tctx) bool {
		if in.Branch {
			c.branchTick()
		}
		f := c.f
		f.PC, f.Stack = c.pc, c.stack
		brk, err := c.vm.execCold(c.t, f, &in)
		if err != nil {
			c.err, c.flushed = err, true
			return false
		}
		if brk {
			// The frame holds the truth and may no longer be the top one.
			c.flushed, c.brk = true, true
		} else {
			c.pc, c.stack = f.PC, f.Stack
		}
		return c.step(brk || in.Branch)
	}
}
