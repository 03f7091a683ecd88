package vm

import "fmt"

// Dispatch selects the interpreter engine. The zero value is the threaded
// engine, the one fast engine: every caller that does not opt out runs (and
// therefore gates) it. DispatchSwitch runs every slice on the reference loop
// — one opcode per bytecode, no superinstructions — which the dual-mode
// golden and differential suites compare the fast engine against.
type Dispatch uint8

const (
	// DispatchThreaded is the subroutine-threaded engine: per-method arrays
	// of specialized closures over wide-fused superinstructions, with the
	// epoch-based branch counter (threaded.go).
	DispatchThreaded Dispatch = iota
	// DispatchSwitch is the reference switch loop (interp.go).
	DispatchSwitch
)

func (d Dispatch) String() string {
	switch d {
	case DispatchThreaded:
		return "threaded"
	case DispatchSwitch:
		return "switch"
	default:
		return fmt.Sprintf("dispatch(%d)", uint8(d))
	}
}

// ParseDispatch parses the spelling of a Dispatch that the CLIs' -dispatch
// flag and the simulator's dispatch= replay-key field use ("" = threaded).
func ParseDispatch(s string) (Dispatch, error) {
	switch s {
	case "threaded", "":
		return DispatchThreaded, nil
	case "switch":
		return DispatchSwitch, nil
	default:
		return 0, fmt.Errorf("unknown dispatch %q (want switch|threaded)", s)
	}
}

// Dispatch returns the engine this VM executes with.
func (vm *VM) Dispatch() Dispatch { return vm.dispatch }

// runSliceDispatch routes a slice to the configured engine. Pair-frequency
// profiling always runs the reference loop: the dynamic pair stream must see
// original opcodes, not superinstructions.
func (vm *VM) runSliceDispatch(t *Thread, target SliceTarget) error {
	if vm.dispatch == DispatchSwitch || vm.pairs != nil {
		return vm.runSlice(t, target)
	}
	return vm.runThreaded(t, target)
}
