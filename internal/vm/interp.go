package vm

import (
	"errors"
	"fmt"

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

// runSlice is the reference loop: it interprets t, one opcode per bytecode
// (vm.rcode, never a superinstruction), until preemption, blocking, death or
// halt. The switch engine (DispatchSwitch) runs every slice on it; the
// threaded engine hands it the two tails that need per-instruction
// resolution (exact replay, near-budget), and the pair profiler counts on it.
// Its speed is not a target — the dual-engine gates compare the fast engine
// against it, so what matters is that it stays the plainest statement of
// each opcode. With an exact target (replay), the slice stops only when the
// thread reaches the recorded (br_cnt, method, pc) position; reaching the
// branch count at a different position keeps executing the (branch-free,
// hence br_cnt-stable) tail until the position matches.
//
// The resolved code of the active frame, the pc, and the operand stack are
// cached in locals so straight-line bytecodes run without touching the
// frame, and the dispatch-boundary work (GC trigger, replay position checks,
// frame re-cache) is hoisted out of the inner loop. Ops that change the
// frame stack, block the thread, or allocate (and may therefore trip the GC
// threshold) leave the inner loop; everything else stays in it. The cached
// pc/stack are written back to the frame (`flushed`) at every exit, so the
// frame is always current whenever anything outside the loop — GC root scan,
// fatal-error reporting, coordinator callbacks reading the §4.2 progress
// indicators off the thread — can observe it. When the slice replays an exact
// target, every instruction takes the boundary path so the stop-position
// check runs per instruction.
//
// Instruction and branch counters and the instruction budget are maintained
// after every executed instruction, so ErrInstrBudget is raised at exactly
// cap+1; under TrackProgress the control-path checksum folds after every
// counted branch (see ProgressSnapshot), whatever path the slice takes. The
// order of the post-instruction block is part of the contract the threaded
// engine mirrors (fold, count, budget, kill, target, yield, brk): change it
// in both or in neither. The Kill flag is sampled at each boundary, and the
// GC trigger is re-checked after every allocating instruction — the only
// instructions that can flip it. Within a slice br_cnt only changes on
// branch-flagged instructions, and budget targets always lie strictly above
// the entry br_cnt (quantum ≥ 1), so checking the budget only after branches
// stops the slice at exactly the same instruction as the historical
// every-instruction check.
func (vm *VM) runSlice(t *Thread, target SliceTarget) error {
	// slow: every instruction takes the boundary path (stop-position check,
	// pair count). watch: some post-instruction bookkeeping exists at all —
	// that, or the checksum fold of a tracked VM.
	slow := target.Exact || vm.pairs != nil
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
			case bytecode.OpDup:
				stack = append(stack, stack[len(stack)-1])
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

			case bytecode.OpI2F:
				n := len(stack)
				a := stack[n-1]
				if a.Kind != heap.KindInt {
					err = notInt(a)
					break
				}
				stack[n-1] = heap.FloatVal(float64(a.I))
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

			default:
				// Everything else is a cold opcode (cold.go): one body shared
				// with the threaded engine, run on the flushed frame; it
				// faults on an opcode that is not in its table either. After a
				// brk the reloaded pc/stack are dead (f may even dangle): the
				// boundary re-caches them from the top frame.
				f.PC, f.Stack = pc, stack
				flushed = true
				brk, err = vm.execCold(t, f, in)
				pc, stack = f.PC, f.Stack
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
