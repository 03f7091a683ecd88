package vm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/heap"
)

// The cold table. A cold opcode is one that is under 0.5 % of the executed
// instructions of each of the six benchmark programs at scale 1
// (TestFusionSetPinned re-measures the shares; the largest are scmp 0.32 %
// and ssub/slen 0.26 % in jack, puts 0.24 % in db, and the thread ops run a
// handful of times per program) and does not belong to a family that is hot
// as a whole (the integer ALU, calls and returns, constants). It is written
// once, in execCold, and reached through one generic closure (compileCold)
// on either stream. Every other opcode has a closure of its own in
// compileBase, and TestOpcodeHomes checks that each opcode has exactly one of
// the two homes (and one way through the test oracle). Moving an opcode
// across the line is a measured diff: this list, the bodies, and the share
// assertion move together.
var coldOps = func() (cold [bytecode.OpHalt + 1]bool) {
	for _, op := range []bytecode.Opcode{
		bytecode.OpNop, bytecode.OpPop, bytecode.OpSwap,
		bytecode.OpFNeg, bytecode.OpF2I, bytecode.OpSCmp,
		bytecode.OpNew, bytecode.OpPutS, bytecode.OpNewArr, bytecode.OpALen,
		bytecode.OpSLen, bytecode.OpSCat, bytecode.OpSSub, bytecode.OpI2S,
		bytecode.OpF2S, bytecode.OpS2I, bytecode.OpChr, bytecode.OpHashStr,
		bytecode.OpWait, bytecode.OpNotify, bytecode.OpNotifyAll,
		bytecode.OpSpawn, bytecode.OpJoin, bytecode.OpYield,
		bytecode.OpAlive, bytecode.OpMarkDead, bytecode.OpHalt,
	} {
		cold[op] = true
	}
	return cold
}()

// IsCold reports whether op is executed by execCold rather than by a closure
// of its own.
func IsCold(op bytecode.Opcode) bool { return int(op) < len(coldOps) && coldOps[op] }

// execCold executes one cold instruction on the flushed frame f: f.PC is the
// instruction's pc and f.Stack the operand stack, and both are left as the
// instruction leaves them. The caller has already counted the branch tick of
// a branch-flagged op (spawn, join). brk reports that the instruction needs
// the dispatch boundary — it blocked or yielded the thread, changed the
// frame stack (after which f may dangle), halted the VM, or allocated and
// tripped the GC threshold, which only an allocating instruction can flip.
// On a fault the pc is unchanged and the instruction is not counted.
func (vm *VM) execCold(t *Thread, f *Frame, in *bytecode.RInstr) (brk bool, err error) {
	stack := f.Stack
	n := len(stack)
	switch in.Op {
	case bytecode.OpNop:
	case bytecode.OpPop:
		stack = stack[:n-1]
	case bytecode.OpSwap:
		stack[n-1], stack[n-2] = stack[n-2], stack[n-1]

	case bytecode.OpFNeg:
		a, err := wantFloat(stack[n-1])
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.FloatVal(-a)
	case bytecode.OpF2I:
		a, err := wantFloat(stack[n-1])
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.IntVal(int64(a))
	case bytecode.OpSCmp:
		sb, err := vm.strAt(stack[n-1])
		if err != nil {
			return false, err
		}
		sa, err := vm.strAt(stack[n-2])
		if err != nil {
			return false, err
		}
		stack[n-2] = heap.IntVal(int64(strings.Compare(sa, sb)))
		stack = stack[:n-1]

	case bytecode.OpNew:
		// Field count and finalizer flag were folded in at predecode.
		r, err := vm.hp.AllocRecord(in.A, int(in.I), in.B != 0)
		if err != nil {
			return false, err
		}
		stack = append(stack, heap.RefVal(r))
		brk = vm.hp.NeedsGC()
	case bytecode.OpPutS:
		vm.statics[in.A] = stack[n-1]
		stack = stack[:n-1]
	case bytecode.OpNewArr:
		ln, err := wantInt(stack[n-1])
		if err != nil {
			return false, err
		}
		var r heap.Ref
		switch in.A {
		case bytecode.ElemInt:
			r, err = vm.hp.AllocIntArr(int(ln))
		case bytecode.ElemFloat:
			r, err = vm.hp.AllocFloatArr(int(ln))
		default:
			r, err = vm.hp.AllocRefArr(int(ln))
		}
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.RefVal(r)
		brk = vm.hp.NeedsGC()
	case bytecode.OpALen:
		r, err := wantRef(stack[n-1])
		if err != nil {
			return false, err
		}
		ln, err := vm.hp.ArrLen(r)
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.IntVal(int64(ln))

	case bytecode.OpSLen:
		s, err := vm.strAt(stack[n-1])
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.IntVal(int64(len(s)))
	case bytecode.OpSCat:
		sb, err := vm.strAt(stack[n-1])
		if err != nil {
			return false, err
		}
		sa, err := vm.strAt(stack[n-2])
		if err != nil {
			return false, err
		}
		r, err := vm.hp.AllocString(sa + sb)
		if err != nil {
			return false, err
		}
		stack[n-2] = heap.RefVal(r)
		stack = stack[:n-1]
		brk = vm.hp.NeedsGC()
	case bytecode.OpSSub:
		end, err := wantInt(stack[n-1])
		if err != nil {
			return false, err
		}
		start, err := wantInt(stack[n-2])
		if err != nil {
			return false, err
		}
		s, err := vm.strAt(stack[n-3])
		if err != nil {
			return false, err
		}
		if start < 0 || end < start || end > int64(len(s)) {
			return false, fmt.Errorf("substring [%d,%d) of %d: %w", start, end, len(s), heap.ErrIndexOOB)
		}
		r, err := vm.hp.AllocString(s[start:end])
		if err != nil {
			return false, err
		}
		stack[n-3] = heap.RefVal(r)
		stack = stack[:n-2]
		brk = vm.hp.NeedsGC()
	case bytecode.OpI2S:
		a, err := wantInt(stack[n-1])
		if err != nil {
			return false, err
		}
		r, err := vm.hp.AllocString(strconv.FormatInt(a, 10))
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.RefVal(r)
		brk = vm.hp.NeedsGC()
	case bytecode.OpF2S:
		a, err := wantFloat(stack[n-1])
		if err != nil {
			return false, err
		}
		r, err := vm.hp.AllocString(strconv.FormatFloat(a, 'g', -1, 64))
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.RefVal(r)
		brk = vm.hp.NeedsGC()
	case bytecode.OpChr:
		a, err := wantInt(stack[n-1])
		if err != nil {
			return false, err
		}
		r, err := vm.hp.AllocString(string([]byte{byte(a)}))
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.RefVal(r)
		brk = vm.hp.NeedsGC()
	case bytecode.OpS2I:
		s, err := vm.strAt(stack[n-1])
		if err != nil {
			return false, err
		}
		v, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil {
			v = 0
		}
		stack[n-1] = heap.IntVal(v)
	case bytecode.OpHashStr:
		s, err := vm.strAt(stack[n-1])
		if err != nil {
			return false, err
		}
		stack[n-1] = heap.IntVal(fnv64(s))

	case bytecode.OpWait:
		r, err := wantRef(stack[n-1])
		if err != nil {
			return false, err
		}
		if !t.reacquiring {
			vm.stats.WaitOps++
			// Now waiting; the pc stays on the wait, which re-executes as
			// the reacquisition when the thread is notified.
			return true, vm.monWait(t, r)
		}
		done, err := vm.reacquireAfterWait(t, r)
		if err != nil || !done {
			return true, err
		}
		stack = stack[:n-1] // wait completed
		brk = true
	case bytecode.OpNotify, bytecode.OpNotifyAll:
		r, err := wantRef(stack[n-1])
		if err != nil {
			return false, err
		}
		stack = stack[:n-1]
		f.Stack = stack
		nn := 1
		if in.Op == bytecode.OpNotifyAll {
			nn = -1
		}
		vm.stats.NotifyOps++
		if err := vm.monNotify(t, r, nn); err != nil {
			return false, err
		}
		brk = true

	case bytecode.OpSpawn:
		if t.finalizerDepth > 0 {
			return false, errors.New("finalizer spawned a thread (violates §4.3 determinism assumption)")
		}
		base := n - int(in.B)
		child, err := vm.newThread(t, in.A, stack[base:])
		if err != nil {
			return false, err
		}
		stack = append(stack[:base], heap.RefVal(child.Ref))
		brk = vm.hp.NeedsGC()
	case bytecode.OpJoin:
		r, err := wantRef(stack[n-1])
		if err != nil {
			return false, err
		}
		if _, err := vm.hp.GetKind(r, heap.ObjThread); err != nil {
			return false, fmt.Errorf("join: %w", err)
		}
		f.Stack = stack[:n-1]
		f.PC++ // return past the join
		// pushFrame may grow t.frames and leave f dangling.
		t.pushFrame(vm.prog.Methods[vm.joinIdx], vm.joinIdx, []heap.Value{heap.RefVal(r)})
		return true, nil
	case bytecode.OpYield:
		t.yielded = true
		brk = true
	case bytecode.OpAlive:
		r, err := wantRef(stack[n-1])
		if err != nil {
			return false, err
		}
		obj, err := vm.hp.GetKind(r, heap.ObjThread)
		if err != nil {
			return false, fmt.Errorf("alive: %w", err)
		}
		stack[n-1] = heap.BoolVal(!vm.threads[obj.Class].logicallyDead)
	case bytecode.OpMarkDead:
		t.logicallyDead = true

	case bytecode.OpHalt:
		vm.halted = true
		brk = true

	default:
		return false, fmt.Errorf("unimplemented opcode %s", in.Op)
	}
	f.Stack = stack
	f.PC++
	return brk, nil
}
