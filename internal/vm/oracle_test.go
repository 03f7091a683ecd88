package vm

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/heap"
)

// Engine is one column of the identity tests (exported so that the external
// test package, identity_test.go, shares them): a stream selection, and
// whether DispatchSwitch VMs are pointed at the oracle while it runs.
type Engine struct {
	Name   string
	D      Dispatch
	Oracle bool
}

func (e Engine) String() string { return e.Name }

// Engines are the two product columns; each is compared against OracleEngine.
var (
	Engines      = []Engine{{"fused", DispatchThreaded, false}, {"step", DispatchSwitch, false}}
	OracleEngine = Engine{"oracle", DispatchSwitch, true}
)

// In runs f in e's column: for the oracle column, with every DispatchSwitch VM
// pointed at the reference loop meanwhile. sliceOracle is a package variable,
// so tests that use it do not run in parallel.
func (e Engine) In(f func()) {
	if e.Oracle {
		sliceOracle = (*VM).runSlice
		defer func() { sliceOracle = nil }()
	}
	f()
}

// run runs v to completion in e's column.
func (e Engine) run(v *VM) (err error) {
	e.In(func() { err = v.Run() })
	return err
}

// runSlice is the oracle: the reference loop the engine (threaded.go) is
// compared against, column by column, by this package's identity tests. It
// was the product's switch engine until the engine learned to step its own
// tails; now nothing depends on its speed, so it is the plainest statement of
// a slice — no cached registers, no fast path, one opcode per bytecode
// (vm.rcode, never a superinstruction), the frame always current, and every
// check made after every instruction, in this order: fetch, tick, execute,
// fold, count, budget, kill, target, yield.
//
// With an exact target (replay), the slice stops only when the thread reaches
// the recorded (br_cnt, method, pc) position; reaching the branch count at a
// different position keeps executing the (branch-free, hence br_cnt-stable)
// tail until the position matches. Under TrackProgress the control-path
// checksum folds after every counted branch whose tick stands (see
// ProgressSnapshot); ErrInstrBudget is raised at exactly cap+1.
func (vm *VM) runSlice(t *Thread, target SliceTarget) error {
	capv := vm.instrCap
	if capv == 0 {
		capv = ^uint64(0)
	}
	for {
		if vm.halted || t.state != StateRunnable || vm.killed.Load() {
			return nil
		}
		if target.Exact && target.StopRunnable && t.BrCnt == target.Br {
			if f := t.Top(); f != nil && f.Method == target.Method && f.PC == target.PC {
				return nil
			}
		}
		if vm.hp.NeedsGC() {
			if err := vm.runGC(t); err != nil {
				return vm.fatal(t, err)
			}
		}
		f := &t.frames[len(t.frames)-1]
		in := &vm.rcode[f.Method][f.PC]
		br := t.BrCnt
		if in.Branch {
			t.BrCnt++
			vm.stats.Branches++
		}
		var err error
		switch in.Op {
		case bytecode.OpIConst:
			f.Stack = append(f.Stack, heap.IntVal(in.I))
			f.PC++
		case bytecode.OpFConst:
			f.Stack = append(f.Stack, heap.FloatVal(in.F))
			f.PC++
		case bytecode.OpSConst:
			// Pre-interned at load time: pushing the program string is
			// allocation-free (and therefore cannot trip the GC).
			f.Stack = append(f.Stack, heap.RefVal(vm.interned[in.A]))
			f.PC++
		case bytecode.OpNull:
			f.Stack = append(f.Stack, heap.Null())
			f.PC++
		case bytecode.OpDup:
			f.Stack = append(f.Stack, f.Stack[len(f.Stack)-1])
			f.PC++

		case bytecode.OpLoad:
			f.Stack = append(f.Stack, f.Locals[in.A])
			f.PC++
		case bytecode.OpStore:
			n := len(f.Stack) - 1
			f.Locals[in.A] = f.Stack[n]
			f.Stack = f.Stack[:n]
			f.PC++

		case bytecode.OpIAdd:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I + b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpISub:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I - b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIMul:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I * b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIDiv:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			if b.I == 0 {
				err = errDivByZero
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I / b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIRem:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			if b.I == 0 {
				err = errDivByZero
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I % b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIAnd:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I & b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIOr:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I | b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIXor:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I ^ b.I)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIShl:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I << (uint64(b.I) & 63))
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpIShr:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(a.I >> (uint64(b.I) & 63))
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpINeg:
			n := len(f.Stack)
			a := f.Stack[n-1]
			if a.Kind != heap.KindInt {
				err = notInt(a)
				break
			}
			f.Stack[n-1] = heap.IntVal(-a.I)
			f.PC++

		case bytecode.OpFAdd:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				err = floatOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.FloatVal(a.F() + b.F())
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpFSub:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				err = floatOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.FloatVal(a.F() - b.F())
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpFMul:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				err = floatOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.FloatVal(a.F() * b.F())
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpFDiv:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				err = floatOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.FloatVal(a.F() / b.F())
			f.Stack = f.Stack[:n-1]
			f.PC++

		case bytecode.OpI2F:
			n := len(f.Stack)
			a := f.Stack[n-1]
			if a.Kind != heap.KindInt {
				err = notInt(a)
				break
			}
			f.Stack[n-1] = heap.FloatVal(float64(a.I))
			f.PC++

		case bytecode.OpICmp:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindInt || b.Kind != heap.KindInt {
				err = intOpErr(a, b)
				break
			}
			f.Stack[n-2] = heap.IntVal(cmpInt(a.I, b.I))
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpFCmp:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if a.Kind != heap.KindFloat || b.Kind != heap.KindFloat {
				err = floatOpErr(a, b)
				break
			}
			var res int64
			switch {
			case a.F() < b.F():
				res = -1
			case a.F() > b.F():
				res = 1
			}
			f.Stack[n-2] = heap.IntVal(res)
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpRefEq:
			n := len(f.Stack)
			b, a := f.Stack[n-1], f.Stack[n-2]
			if b.Kind != heap.KindRef {
				err = notRef(b)
				break
			}
			if a.Kind != heap.KindRef {
				err = notRef(a)
				break
			}
			f.Stack[n-2] = heap.BoolVal(a.R() == b.R())
			f.Stack = f.Stack[:n-1]
			f.PC++

		case bytecode.OpJmp:
			f.PC = in.A
		case bytecode.OpJz:
			n := len(f.Stack)
			c := f.Stack[n-1]
			if c.Kind != heap.KindInt {
				err = notInt(c)
				break
			}
			f.Stack = f.Stack[:n-1]
			if c.I == 0 {
				f.PC = in.A
			} else {
				f.PC++
			}
		case bytecode.OpJnz:
			n := len(f.Stack)
			c := f.Stack[n-1]
			if c.Kind != heap.KindInt {
				err = notInt(c)
				break
			}
			f.Stack = f.Stack[:n-1]
			if c.I != 0 {
				f.PC = in.A
			} else {
				f.PC++
			}

		case bytecode.OpCall:
			err = vm.doCall(t, f, in.A)
		case bytecode.OpRet, bytecode.OpRetV:
			err = vm.doReturn(t, in.Op == bytecode.OpRetV)

		case bytecode.OpGetF:
			n := len(f.Stack)
			rv := f.Stack[n-1]
			if rv.Kind != heap.KindRef {
				err = notRef(rv)
				break
			}
			v, gerr := vm.hp.GetField(rv.R(), int(in.A))
			if gerr != nil {
				err = gerr
				break
			}
			f.Stack[n-1] = v
			f.PC++
		case bytecode.OpPutF:
			n := len(f.Stack)
			v, rv := f.Stack[n-1], f.Stack[n-2]
			if rv.Kind != heap.KindRef {
				err = notRef(rv)
				break
			}
			if serr := vm.hp.SetField(rv.R(), int(in.A), v); serr != nil {
				err = serr
				break
			}
			f.Stack = f.Stack[:n-2]
			f.PC++
		case bytecode.OpGetS:
			f.Stack = append(f.Stack, vm.statics[in.A])
			f.PC++

		case bytecode.OpALoad:
			n := len(f.Stack)
			iv, rv := f.Stack[n-1], f.Stack[n-2]
			if iv.Kind != heap.KindInt {
				err = notInt(iv)
				break
			}
			if rv.Kind != heap.KindRef {
				err = notRef(rv)
				break
			}
			v, gerr := vm.hp.ArrGet(rv.R(), int(iv.I))
			if gerr != nil {
				err = gerr
				break
			}
			f.Stack[n-2] = v
			f.Stack = f.Stack[:n-1]
			f.PC++
		case bytecode.OpAStore:
			n := len(f.Stack)
			v, iv, rv := f.Stack[n-1], f.Stack[n-2], f.Stack[n-3]
			if iv.Kind != heap.KindInt {
				err = notInt(iv)
				break
			}
			if rv.Kind != heap.KindRef {
				err = notRef(rv)
				break
			}
			if serr := vm.hp.ArrSet(rv.R(), int(iv.I), v); serr != nil {
				err = serr
				break
			}
			f.Stack = f.Stack[:n-3]
			f.PC++

		case bytecode.OpSIdx:
			n := len(f.Stack)
			iv := f.Stack[n-1]
			if iv.Kind != heap.KindInt {
				err = notInt(iv)
				break
			}
			s, serr := vm.strAt(f.Stack[n-2])
			if serr != nil {
				err = serr
				break
			}
			if iv.I < 0 || iv.I >= int64(len(s)) {
				err = fmt.Errorf("string index %d of %d: %w", iv.I, len(s), heap.ErrIndexOOB)
				break
			}
			f.Stack[n-2] = heap.IntVal(int64(s[iv.I]))
			f.Stack = f.Stack[:n-1]
			f.PC++

		case bytecode.OpMEnter:
			rv := f.Stack[len(f.Stack)-1]
			if rv.Kind != heap.KindRef {
				err = notRef(rv)
				break
			}
			done, merr := vm.monEnter(t, rv.R())
			if merr != nil {
				err = merr
				break
			}
			if done {
				f.Stack = f.Stack[:len(f.Stack)-1]
				f.PC++
			}
			// Blocked or gated: PC unchanged, re-execute on resume.
		case bytecode.OpMExit:
			rv := f.Stack[len(f.Stack)-1]
			if rv.Kind != heap.KindRef {
				err = notRef(rv)
				break
			}
			f.Stack = f.Stack[:len(f.Stack)-1]
			if merr := vm.monExit(t, rv.R()); merr != nil {
				err = merr
				break
			}
			f.PC++

		default:
			// Everything else is a cold opcode (cold.go): the body the
			// engine's compileCold closure runs too; it faults on an
			// opcode that is not in its table either.
			_, err = vm.execCold(t, f, in)
		}
		if err != nil {
			return vm.fatal(t, err)
		}
		// A gated native call (or one whose monitor was contended) undid its
		// tick and re-executes: nothing to fold.
		if in.Branch && vm.trackProgress && t.BrCnt != br {
			t.foldTop()
		}
		vm.stats.Instructions++
		if vm.stats.Instructions > capv {
			return vm.fatal(t, ErrInstrBudget)
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
		} else if in.Branch && t.BrCnt >= target.Br {
			return nil
		}
		if t.yielded {
			t.yielded = false
			return nil
		}
	}
}
