package vm

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/native"
)

// Interpreter kind-mismatch errors are fatal (R0): FTVM traps them rather
// than modelling catchable exceptions.
var (
	errWantInt   = errors.New("operand is not an int")
	errWantFloat = errors.New("operand is not a float")
	errWantRef   = errors.New("operand is not a ref")
	errDivByZero = errors.New("integer division by zero")
)

// Cold-path error constructors, kept out of the case bodies so the hot loop
// only carries a branch to them.

func notInt(v heap.Value) error { return fmt.Errorf("%w: %s", errWantInt, v) }

func notFloat(v heap.Value) error { return fmt.Errorf("%w: %s", errWantFloat, v) }

func notRef(v heap.Value) error { return fmt.Errorf("%w: %s", errWantRef, v) }

// intOpErr reports the mismatched operand of a binary int op, right operand
// first (the historical pop order).
func intOpErr(a, b heap.Value) error {
	if b.Kind != heap.KindInt {
		return notInt(b)
	}
	return notInt(a)
}

func floatOpErr(a, b heap.Value) error {
	if b.Kind != heap.KindFloat {
		return notFloat(b)
	}
	return notFloat(a)
}

func wantInt(v heap.Value) (int64, error) {
	if v.Kind != heap.KindInt {
		return 0, notInt(v)
	}
	return v.I, nil
}

func wantFloat(v heap.Value) (float64, error) {
	if v.Kind != heap.KindFloat {
		return 0, notFloat(v)
	}
	return v.F, nil
}

func wantRef(v heap.Value) (heap.Ref, error) {
	if v.Kind != heap.KindRef {
		return 0, notRef(v)
	}
	return v.R, nil
}

// strAt resolves a string operand (ref to a heap string object).
func (vm *VM) strAt(v heap.Value) (string, error) {
	if v.Kind != heap.KindRef {
		return "", notRef(v)
	}
	return vm.hp.StringAt(v.R)
}

// runSlice interprets t until preemption, blocking, death or halt. With an
// exact target (replay), the slice stops only when the thread reaches the
// recorded (br_cnt, method, pc) position; reaching the branch count at a
// different position keeps executing the (branch-free, hence br_cnt-stable)
// tail until the position matches.
//
// This is the decode-once hot loop. The resolved code of the active frame,
// the pc, and the operand stack are cached in locals so straight-line
// bytecodes run without touching the frame, and the dispatch-boundary work
// (GC trigger, replay position checks, frame re-cache) is hoisted out of the
// inner loop. Ops that change the frame stack, block the thread, or allocate
// (and may therefore trip the GC threshold) leave the inner loop; everything
// else stays in it. The cached pc/stack are written back to the frame
// (`flushed`) at every exit, so the frame is always current whenever anything
// outside the loop — GC root scan, fatal-error reporting, coordinator
// callbacks reading the §4.2 progress indicators off the thread — can
// observe it. When the slice replays an exact target, every instruction
// takes the boundary path so the stop-position check runs per instruction.
//
// Instruction and branch counters and the instruction budget are maintained
// after every executed instruction; under TrackProgress the control-path
// checksum folds after every counted branch (see ProgressSnapshot), whatever
// path the slice takes. The Kill flag is sampled at each boundary,
// and the GC trigger is re-checked after every allocating instruction — the
// only instructions that can flip it. Within a slice br_cnt only changes on
// branch-flagged instructions, and budget targets always lie strictly above
// the entry br_cnt (quantum ≥ 1), so checking the budget only after branches
// stops the slice at exactly the same instruction as the historical
// every-instruction check.
func (vm *VM) runSlice(t *Thread, target SliceTarget) error {
	slow := target.Exact || vm.pairs != nil
	// watch: some post-instruction bookkeeping exists at all — the boundary
	// path, or the checksum fold of a tracked VM, which stays on the fast path.
	watch := slow || vm.trackProgress
	capv := vm.instrCap
	if capv == 0 {
		capv = ^uint64(0)
	}
	// prevOp threads the dynamic opcode-pair profile (Config.PairCounter)
	// through the slice: consecutive executed instructions, reset per slice.
	prevOp := bytecode.OpInvalid
	// The instruction counter is kept in a register (icnt) and written back
	// at every exit; nothing reads vm.stats.Instructions while a slice is
	// mid-flight.
	icnt := vm.stats.Instructions
	for {
		// Dispatch-boundary checks, in the historical per-instruction order.
		if vm.halted || t.state != StateRunnable || vm.killed.Load() {
			vm.stats.Instructions = icnt
			return nil
		}
		if target.Exact && target.StopRunnable && t.BrCnt == target.Br {
			if f := t.Top(); f != nil && f.Method == target.Method && f.PC == target.PC {
				vm.stats.Instructions = icnt
				return nil
			}
		}
		if vm.hp.NeedsGC() {
			if err := vm.runGC(t); err != nil {
				vm.stats.Instructions = icnt
				return vm.fatal(t, err)
			}
		}
		f := &t.frames[len(t.frames)-1]
		code := vm.rcode[f.Method]
		if !slow {
			code = vm.rfused[f.Method]
		}
		pc := f.PC
		stack := f.Stack
		locals := f.Locals
	inner:
		for {
			in := &code[pc]
			if in.Branch {
				t.BrCnt++
				vm.stats.Branches++
			}
			var err error
			// flushed: the frame already holds the truth (set by ops that
			// hand the frame to helpers). brk: leave the inner loop after
			// this instruction's bookkeeping.
			flushed := false
			brk := false
			// rolledBack: a native call the coordinator gated (or whose
			// monitor was contended) undid its br_cnt tick; it re-executes.
			rolledBack := false
			switch in.Op {
			case bytecode.OpNop:
				pc++

			case bytecode.OpIConst:
				stack = append(stack, heap.IntVal(in.I))
				pc++
			case bytecode.OpFConst:
				stack = append(stack, heap.FloatVal(in.F))
				pc++
			case bytecode.OpSConst:
				// Pre-interned at load time: pushing the program string is
				// allocation-free (and therefore cannot trip the GC).
				stack = append(stack, heap.RefVal(vm.interned[in.A]))
				pc++
			case bytecode.OpNull:
				stack = append(stack, heap.Null())
				pc++
			case bytecode.OpPop:
				stack = stack[:len(stack)-1]
				pc++
			case bytecode.OpDup:
				stack = append(stack, stack[len(stack)-1])
				pc++
			case bytecode.OpSwap:
				n := len(stack)
				stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
				pc++

			case bytecode.OpLoad:
				stack = append(stack, locals[in.A])
				pc++
			case bytecode.OpStore:
				n := len(stack) - 1
				locals[in.A] = stack[n]
				stack = stack[:n]
				pc++

			case bytecode.OpIAdd:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I + b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpISub:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I - b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIMul:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I * b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIDiv:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				if b.I == 0 {
					err = errDivByZero
					break
				}
				stack[n-2] = heap.IntVal(a.I / b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIRem:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				if b.I == 0 {
					err = errDivByZero
					break
				}
				stack[n-2] = heap.IntVal(a.I % b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIAnd:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I & b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIOr:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I | b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIXor:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I ^ b.I)
				stack = stack[:n-1]
				pc++
			case bytecode.OpIShl:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I << (uint64(b.I) & 63))
				stack = stack[:n-1]
				pc++
			case bytecode.OpIShr:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(a.I >> (uint64(b.I) & 63))
				stack = stack[:n-1]
				pc++
			case bytecode.OpINeg:
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(-a.I)
				pc++

			// Fused superinstructions (fast path only): an iconst (constant
			// in in.I) or load (slot in in.A) plus the following ALU op in
			// one dispatch. Each counts the folded push (icnt++) before any
			// error so a type fault charges exactly the instructions the
			// unfused pair would have.
			case bytecode.OpIAddC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I + in.I)
				pc += 2
			case bytecode.OpISubC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I - in.I)
				pc += 2
			case bytecode.OpIMulC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I * in.I)
				pc += 2
			case bytecode.OpIDivC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				if in.I == 0 {
					err = errDivByZero
					break
				}
				stack[n-1] = heap.IntVal(a.I / in.I)
				pc += 2
			case bytecode.OpIRemC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				if in.I == 0 {
					err = errDivByZero
					break
				}
				stack[n-1] = heap.IntVal(a.I % in.I)
				pc += 2
			case bytecode.OpIAndC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I & in.I)
				pc += 2
			case bytecode.OpIOrC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I | in.I)
				pc += 2
			case bytecode.OpIXorC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I ^ in.I)
				pc += 2
			case bytecode.OpIShlC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I << (uint64(in.I) & 63))
				pc += 2
			case bytecode.OpIShrC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(a.I >> (uint64(in.I) & 63))
				pc += 2
			case bytecode.OpICmpC:
				icnt++
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.IntVal(cmpInt(a.I, in.I))
				pc += 2
			case bytecode.OpIAddL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I + b.I)
				pc += 2
			case bytecode.OpISubL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I - b.I)
				pc += 2
			case bytecode.OpIMulL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I * b.I)
				pc += 2
			case bytecode.OpIDivL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				if b.I == 0 {
					err = errDivByZero
					break
				}
				stack[n-1] = heap.IntVal(a.I / b.I)
				pc += 2
			case bytecode.OpIRemL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				if b.I == 0 {
					err = errDivByZero
					break
				}
				stack[n-1] = heap.IntVal(a.I % b.I)
				pc += 2
			case bytecode.OpIAndL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I & b.I)
				pc += 2
			case bytecode.OpIOrL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I | b.I)
				pc += 2
			case bytecode.OpIXorL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I ^ b.I)
				pc += 2
			case bytecode.OpIShlL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I << (uint64(b.I) & 63))
				pc += 2
			case bytecode.OpIShrL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(a.I >> (uint64(b.I) & 63))
				pc += 2
			case bytecode.OpICmpL:
				icnt++
				n := len(stack)
				a, b := stack[n-1], locals[in.A]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-1] = heap.IntVal(cmpInt(a.I, b.I))
				pc += 2

			case bytecode.OpFAdd:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
					err = floatOpErr(a, b)
					break
				}
				stack[n-2] = heap.FloatVal(a.F + b.F)
				stack = stack[:n-1]
				pc++
			case bytecode.OpFSub:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
					err = floatOpErr(a, b)
					break
				}
				stack[n-2] = heap.FloatVal(a.F - b.F)
				stack = stack[:n-1]
				pc++
			case bytecode.OpFMul:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
					err = floatOpErr(a, b)
					break
				}
				stack[n-2] = heap.FloatVal(a.F * b.F)
				stack = stack[:n-1]
				pc++
			case bytecode.OpFDiv:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
					err = floatOpErr(a, b)
					break
				}
				stack[n-2] = heap.FloatVal(a.F / b.F)
				stack = stack[:n-1]
				pc++
			case bytecode.OpFNeg:
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindFloat {
					err = notFloat(a)
					break
				}
				stack[n-1] = heap.FloatVal(-a.F)
				pc++

			case bytecode.OpI2F:
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.FloatVal(float64(a.I))
				pc++
			case bytecode.OpF2I:
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindFloat {
					err = notFloat(a)
					break
				}
				stack[n-1] = heap.IntVal(int64(a.F))
				pc++

			case bytecode.OpICmp:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
					err = intOpErr(a, b)
					break
				}
				stack[n-2] = heap.IntVal(cmpInt(a.I, b.I))
				stack = stack[:n-1]
				pc++
			case bytecode.OpFCmp:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
					err = floatOpErr(a, b)
					break
				}
				var res int64
				switch {
				case a.F < b.F:
					res = -1
				case a.F > b.F:
					res = 1
				}
				stack[n-2] = heap.IntVal(res)
				stack = stack[:n-1]
				pc++
			case bytecode.OpSCmp:
				n := len(stack)
				sb, serr := vm.strAt(stack[n-1])
				if serr != nil {
					err = serr
					break
				}
				sa, serr := vm.strAt(stack[n-2])
				if serr != nil {
					err = serr
					break
				}
				var res int64
				switch {
				case sa < sb:
					res = -1
				case sa > sb:
					res = 1
				}
				stack[n-2] = heap.IntVal(res)
				stack = stack[:n-1]
				pc++
			case bytecode.OpRefEq:
				n := len(stack)
				b, a := stack[n-1], stack[n-2]
				if b.Kind != heap.KindRef {
					err = notRef(b)
					break
				}
				if a.Kind != heap.KindRef {
					err = notRef(a)
					break
				}
				stack[n-2] = heap.BoolVal(a.R == b.R)
				stack = stack[:n-1]
				pc++

			case bytecode.OpJmp:
				pc = in.A
			case bytecode.OpJz:
				n := len(stack)
				c := stack[n-1]
				if c.Kind != heap.KindInt {
					err = notInt(c)
					break
				}
				stack = stack[:n-1]
				if c.I == 0 {
					pc = in.A
				} else {
					pc++
				}
			case bytecode.OpJnz:
				n := len(stack)
				c := stack[n-1]
				if c.Kind != heap.KindInt {
					err = notInt(c)
					break
				}
				stack = stack[:n-1]
				if c.I != 0 {
					pc = in.A
				} else {
					pc++
				}

			case bytecode.OpCall:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				br := t.BrCnt
				err = vm.doCall(t, f, in.A)
				rolledBack = t.BrCnt != br
			case bytecode.OpRet, bytecode.OpRetV:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				err = vm.doReturn(t, in.Op == bytecode.OpRetV)

			case bytecode.OpNew:
				// Field count and finalizer flag were folded in at predecode.
				r, aerr := vm.hp.AllocRecord(in.A, int(in.I), in.B != 0)
				if aerr != nil {
					err = aerr
					break
				}
				stack = append(stack, heap.RefVal(r))
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpGetF:
				n := len(stack)
				rv := stack[n-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				v, gerr := vm.hp.GetField(rv.R, int(in.A))
				if gerr != nil {
					err = gerr
					break
				}
				stack[n-1] = v
				pc++
			case bytecode.OpPutF:
				n := len(stack)
				v, rv := stack[n-1], stack[n-2]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				if serr := vm.hp.SetField(rv.R, int(in.A), v); serr != nil {
					err = serr
					break
				}
				stack = stack[:n-2]
				pc++
			case bytecode.OpGetS:
				stack = append(stack, vm.statics[in.A])
				pc++
			case bytecode.OpPutS:
				n := len(stack) - 1
				vm.statics[in.A] = stack[n]
				stack = stack[:n]
				pc++

			case bytecode.OpNewArr:
				n := len(stack)
				nv := stack[n-1]
				if nv.Kind != heap.KindInt {
					err = notInt(nv)
					break
				}
				var r heap.Ref
				var aerr error
				switch in.A {
				case bytecode.ElemInt:
					r, aerr = vm.hp.AllocIntArr(int(nv.I))
				case bytecode.ElemFloat:
					r, aerr = vm.hp.AllocFloatArr(int(nv.I))
				default:
					r, aerr = vm.hp.AllocRefArr(int(nv.I))
				}
				if aerr != nil {
					err = aerr
					break
				}
				stack[n-1] = heap.RefVal(r)
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpALoad:
				n := len(stack)
				iv, rv := stack[n-1], stack[n-2]
				if iv.Kind != heap.KindInt {
					err = notInt(iv)
					break
				}
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				v, gerr := vm.hp.ArrGet(rv.R, int(iv.I))
				if gerr != nil {
					err = gerr
					break
				}
				stack[n-2] = v
				stack = stack[:n-1]
				pc++
			case bytecode.OpAStore:
				n := len(stack)
				v, iv, rv := stack[n-1], stack[n-2], stack[n-3]
				if iv.Kind != heap.KindInt {
					err = notInt(iv)
					break
				}
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				if serr := vm.hp.ArrSet(rv.R, int(iv.I), v); serr != nil {
					err = serr
					break
				}
				stack = stack[:n-3]
				pc++
			case bytecode.OpALen:
				n := len(stack)
				rv := stack[n-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				ln, gerr := vm.hp.ArrLen(rv.R)
				if gerr != nil {
					err = gerr
					break
				}
				stack[n-1] = heap.IntVal(int64(ln))
				pc++

			case bytecode.OpSLen:
				n := len(stack)
				s, serr := vm.strAt(stack[n-1])
				if serr != nil {
					err = serr
					break
				}
				stack[n-1] = heap.IntVal(int64(len(s)))
				pc++
			case bytecode.OpSCat:
				n := len(stack)
				sb, serr := vm.strAt(stack[n-1])
				if serr != nil {
					err = serr
					break
				}
				sa, serr := vm.strAt(stack[n-2])
				if serr != nil {
					err = serr
					break
				}
				r, aerr := vm.hp.AllocString(sa + sb)
				if aerr != nil {
					err = aerr
					break
				}
				stack[n-2] = heap.RefVal(r)
				stack = stack[:n-1]
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpSIdx:
				n := len(stack)
				iv := stack[n-1]
				if iv.Kind != heap.KindInt {
					err = notInt(iv)
					break
				}
				s, serr := vm.strAt(stack[n-2])
				if serr != nil {
					err = serr
					break
				}
				if iv.I < 0 || iv.I >= int64(len(s)) {
					err = fmt.Errorf("string index %d of %d: %w", iv.I, len(s), heap.ErrIndexOOB)
					break
				}
				stack[n-2] = heap.IntVal(int64(s[iv.I]))
				stack = stack[:n-1]
				pc++
			case bytecode.OpSSub:
				n := len(stack)
				ev, sv := stack[n-1], stack[n-2]
				if ev.Kind != heap.KindInt {
					err = notInt(ev)
					break
				}
				if sv.Kind != heap.KindInt {
					err = notInt(sv)
					break
				}
				s, serr := vm.strAt(stack[n-3])
				if serr != nil {
					err = serr
					break
				}
				start, end := sv.I, ev.I
				if start < 0 || end < start || end > int64(len(s)) {
					err = fmt.Errorf("substring [%d,%d) of %d: %w", start, end, len(s), heap.ErrIndexOOB)
					break
				}
				r, aerr := vm.hp.AllocString(s[start:end])
				if aerr != nil {
					err = aerr
					break
				}
				stack[n-3] = heap.RefVal(r)
				stack = stack[:n-2]
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpI2S:
				n := len(stack)
				av := stack[n-1]
				if av.Kind != heap.KindInt {
					err = notInt(av)
					break
				}
				r, aerr := vm.hp.AllocString(strconv.FormatInt(av.I, 10))
				if aerr != nil {
					err = aerr
					break
				}
				stack[n-1] = heap.RefVal(r)
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpF2S:
				n := len(stack)
				av := stack[n-1]
				if av.Kind != heap.KindFloat {
					err = notFloat(av)
					break
				}
				r, aerr := vm.hp.AllocString(strconv.FormatFloat(av.F, 'g', -1, 64))
				if aerr != nil {
					err = aerr
					break
				}
				stack[n-1] = heap.RefVal(r)
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpS2I:
				n := len(stack)
				s, serr := vm.strAt(stack[n-1])
				if serr != nil {
					err = serr
					break
				}
				nv, perr := strconv.ParseInt(s, 10, 64)
				if perr != nil {
					nv = 0
				}
				stack[n-1] = heap.IntVal(nv)
				pc++
			case bytecode.OpChr:
				n := len(stack)
				av := stack[n-1]
				if av.Kind != heap.KindInt {
					err = notInt(av)
					break
				}
				r, aerr := vm.hp.AllocString(string([]byte{byte(av.I)}))
				if aerr != nil {
					err = aerr
					break
				}
				stack[n-1] = heap.RefVal(r)
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpHashStr:
				n := len(stack)
				s, serr := vm.strAt(stack[n-1])
				if serr != nil {
					err = serr
					break
				}
				stack[n-1] = heap.IntVal(fnv64(s))
				pc++

			case bytecode.OpMEnter:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				rv := stack[len(stack)-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				done, merr := vm.monEnter(t, rv.R)
				if merr != nil {
					err = merr
					break
				}
				if done {
					f.Stack = f.Stack[:len(f.Stack)-1]
					f.PC = pc + 1
				}
				// Blocked or gated: PC unchanged, re-execute on resume.
			case bytecode.OpMExit:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				rv := stack[len(stack)-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				f.Stack = f.Stack[:len(f.Stack)-1]
				if merr := vm.monExit(t, rv.R); merr != nil {
					err = merr
					break
				}
				f.PC = pc + 1
			case bytecode.OpWait:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				rv := stack[len(stack)-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				if t.reacquiring {
					done, rerr := vm.reacquireAfterWait(t, rv.R)
					if rerr != nil {
						err = rerr
						break
					}
					if done {
						f.Stack = f.Stack[:len(f.Stack)-1] // wait completed
						f.PC = pc + 1
					}
				} else {
					vm.stats.WaitOps++
					if werr := vm.monWait(t, rv.R); werr != nil {
						err = werr
						break
					}
					// Now waiting; PC unchanged.
				}
			case bytecode.OpNotify, bytecode.OpNotifyAll:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				rv := stack[len(stack)-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				f.Stack = f.Stack[:len(f.Stack)-1]
				nn := 1
				if in.Op == bytecode.OpNotifyAll {
					nn = -1
				}
				vm.stats.NotifyOps++
				if merr := vm.monNotify(t, rv.R, nn); merr != nil {
					err = merr
					break
				}
				f.PC = pc + 1

			case bytecode.OpSpawn:
				if t.finalizerDepth > 0 {
					err = errors.New("finalizer spawned a thread (violates §4.3 determinism assumption)")
					break
				}
				base := len(stack) - int(in.B)
				child, serr := vm.newThread(t, in.A, stack[base:])
				if serr != nil {
					err = serr
					break
				}
				stack = append(stack[:base], heap.RefVal(child.Ref))
				pc++
				brk = vm.hp.NeedsGC()
			case bytecode.OpJoin:
				f.PC, f.Stack = pc, stack
				flushed, brk = true, true
				rv := stack[len(stack)-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				if _, gerr := vm.hp.GetKind(rv.R, heap.ObjThread); gerr != nil {
					err = fmt.Errorf("join: %w", gerr)
					break
				}
				f.Stack = f.Stack[:len(f.Stack)-1]
				f.PC = pc + 1 // return past the join
				t.pushFrame(vm.prog.Methods[vm.joinIdx], vm.joinIdx, []heap.Value{heap.RefVal(rv.R)})
			case bytecode.OpYield:
				t.yielded = true
				brk = true
				pc++
			case bytecode.OpAlive:
				n := len(stack)
				rv := stack[n-1]
				if rv.Kind != heap.KindRef {
					err = notRef(rv)
					break
				}
				obj, gerr := vm.hp.GetKind(rv.R, heap.ObjThread)
				if gerr != nil {
					err = fmt.Errorf("alive: %w", gerr)
					break
				}
				stack[n-1] = heap.BoolVal(!vm.threads[obj.Class].logicallyDead)
				pc++
			case bytecode.OpMarkDead:
				t.logicallyDead = true
				pc++

			case bytecode.OpHalt:
				pc++
				vm.halted = true
				brk = true

			default:
				err = fmt.Errorf("unimplemented opcode %s", in.Op)
			}
			if err != nil {
				vm.stats.Instructions = icnt
				if !flushed {
					f.PC, f.Stack = pc, stack
				}
				return vm.fatal(t, err)
			}
			// Post-instruction bookkeeping, in the historical order.
			if watch {
				if slow {
					if vm.pairs != nil {
						if prevOp != bytecode.OpInvalid {
							vm.pairs.Add(prevOp, in.Op)
						}
						prevOp = in.Op
					}
					if !flushed {
						f.PC, f.Stack = pc, stack
						flushed = true
					}
					brk = true
				}
				if in.Branch && vm.trackProgress && !rolledBack {
					// The tick stands: fold the position the branch left the
					// thread at. Ops that flushed may have changed the frame.
					if flushed {
						t.foldTop()
					} else {
						t.Progress.fold(f.Method, pc)
					}
				}
			}
			icnt++
			if icnt > capv {
				vm.stats.Instructions = icnt
				if !flushed {
					f.PC, f.Stack = pc, stack
				}
				return vm.fatal(t, ErrInstrBudget)
			}
			// Straight-line fast path: nothing below can fire unless the
			// instruction was a branch, a boundary op (brk set — includes
			// yield) or the slice runs in slow mode (brk is set too). The
			// kill flag is polled here rather than per instruction: every
			// loop contains a branch, so kill latency stays bounded.
			if brk || in.Branch {
				if vm.killed.Load() {
					vm.stats.Instructions = icnt
					if !flushed {
						f.PC, f.Stack = pc, stack
					}
					return nil
				}
				if target.Exact {
					if t.BrCnt > target.Br {
						// Ran past the recorded switch point: let the
						// coordinator diagnose the divergence at the next
						// dispatch.
						vm.stats.Instructions = icnt
						return nil
					}
				} else if in.Branch && t.BrCnt >= target.Br {
					vm.stats.Instructions = icnt
					if !flushed {
						f.PC, f.Stack = pc, stack
					}
					return nil
				}
				if t.yielded {
					t.yielded = false
					vm.stats.Instructions = icnt
					if !flushed {
						f.PC, f.Stack = pc, stack
					}
					return nil
				}
				if brk {
					if !flushed {
						f.PC, f.Stack = pc, stack
					}
					break inner
				}
			}
		}
	}
}

func cmpInt(a, b int64) int64 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func fnv64(s string) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h >> 1) // keep it non-negative for program convenience
}

// doCall handles OpCall for both bytecode and native callees. The caller has
// flushed the frame (f.PC at the call instruction, operands on f.Stack).
func (vm *VM) doCall(t *Thread, f *Frame, methodIdx int32) error {
	callee := vm.prog.Methods[methodIdx]
	if !callee.Native {
		// The argument values are copied into the callee's locals by
		// pushFrame, so the operand-stack tail can be passed as a view —
		// no per-call argument slice. Truncate before pushFrame: it may grow
		// t.frames and leave f dangling.
		base := len(f.Stack) - callee.NArgs
		args := f.Stack[base:]
		f.Stack = f.Stack[:base]
		f.PC++ // resume after the call
		t.pushFrame(callee, methodIdx, args)
		return nil
	}
	if def, ok := vm.natives.Lookup(callee.NativeSig); ok && vm.natives.Intercepted(def.Sig) {
		if !vm.coord.NativeReady(vm, t, def) {
			// Gate before popping args or advancing the pc: the call
			// re-executes when the coordinator re-admits the thread.
			// Undo this OpCall's branch tick so br_cnt counts the call
			// exactly once.
			t.BrCnt--
			vm.stats.Branches--
			t.state = StateGated
			t.blockedOn = nil
			return nil
		}
	}
	nargs := callee.NArgs
	args := make([]heap.Value, nargs)
	for i := nargs - 1; i >= 0; i-- {
		args[i] = f.pop()
	}
	f.PC++ // resume after the call
	def, ok := vm.natives.Lookup(callee.NativeSig)
	if !ok {
		return fmt.Errorf("%v %q", native.ErrUnknownNative, callee.NativeSig)
	}
	vm.stats.NativeCalls++
	var results []heap.Value
	var err error
	if vm.natives.Intercepted(def.Sig) {
		if t.finalizerDepth > 0 {
			return fmt.Errorf("finalizer called intercepted native %s (violates §4.3 determinism assumption)", def.Sig)
		}
		t.NatSeq++
		vm.stats.NMIntercepted++
		if def.Output {
			vm.stats.NMOutputCommits++
		}
		results, err = vm.coord.InvokeNative(vm, t, def, args)
	} else {
		results, err = vm.DirectNative(t, def, args)
		if err != nil && def.AcquiresLocks && errors.Is(err, ErrMonitorContends) {
			// The native hit a contended (or replay-gated) monitor and the
			// thread is parked. Roll the call back — restore the operand
			// stack and pc, and undo this attempt's counters — so the whole
			// native re-executes when the thread is readmitted
			// (AcquiresLocks natives are side-effect-free up to their first
			// acquisition).
			f.PC--
			for _, a := range args {
				f.push(a)
			}
			t.BrCnt--
			vm.stats.Branches--
			vm.stats.NativeCalls--
			return nil
		}
	}
	if err != nil {
		return err
	}
	if len(results) != def.Returns {
		return fmt.Errorf("native %s returned %d values, want %d", def.Sig, len(results), def.Returns)
	}
	for _, v := range results {
		f.push(v)
	}
	return nil
}

// doReturn pops the current frame; when the last frame returns, the thread
// runs its death sequence ($finish) and then dies.
func (vm *VM) doReturn(t *Thread, hasValue bool) error {
	var ret heap.Value
	if hasValue {
		ret = t.frames[len(t.frames)-1].pop()
	}
	done := t.popFrame()
	if done.finalizer {
		t.finalizerDepth--
	}
	if len(t.frames) > 0 {
		if hasValue {
			t.frames[len(t.frames)-1].push(ret)
		}
		return nil
	}
	if !t.finishing {
		t.finishing = true
		t.pushFrame(vm.prog.Methods[vm.finishIdx], vm.finishIdx, []heap.Value{heap.RefVal(t.Ref)})
		return nil
	}
	t.state = StateDead
	return nil
}
