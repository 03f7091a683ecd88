package vm

import (
	"errors"
	"fmt"

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
	return v.F(), nil
}

func wantRef(v heap.Value) (heap.Ref, error) {
	if v.Kind != heap.KindRef {
		return 0, notRef(v)
	}
	return v.R(), nil
}

// strAt resolves a string operand (ref to a heap string object).
func (vm *VM) strAt(v heap.Value) (string, error) {
	if v.Kind != heap.KindRef {
		return "", notRef(v)
	}
	return vm.hp.StringAt(v.R())
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
		// pushFrame copies the arguments into the callee's locals. Truncate
		// before it runs: it may grow t.frames and leave f dangling.
		t.pushFrame(callee, methodIdx, f.takeArgs(callee.NArgs))
		return nil
	}
	def, ok := vm.natives.Lookup(callee.NativeSig)
	intercepted := ok && vm.natives.Intercepted(def.Sig)
	if intercepted && !vm.coord.NativeReady(vm, t, def) {
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
	// The native reads its arguments in place (the contract on
	// native.Def.Fn); nothing pushes onto f until it has returned.
	args := f.takeArgs(callee.NArgs)
	if !ok {
		return fmt.Errorf("%v %q", native.ErrUnknownNative, callee.NativeSig)
	}
	vm.stats.NativeCalls++
	var results []heap.Value
	var err error
	if intercepted {
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
			f.Stack = f.Stack[:len(f.Stack)+len(args)]
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
	f := &t.frames[len(t.frames)-1]
	var ret heap.Value
	if hasValue {
		ret = f.Stack[len(f.Stack)-1]
	}
	if f.finalizer {
		t.finalizerDepth--
	}
	t.frames = t.frames[:len(t.frames)-1] // the slot keeps its arrays (pushFrame)
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
