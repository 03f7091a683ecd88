package vm

import "fmt"

// Dispatch selects the stream the one engine (threaded.go) runs a slice on.
// The zero value is the fused stream: every caller that does not opt out runs
// (and therefore gates) it. DispatchSwitch steps every slice over the unfused
// stream — one closure per bytecode, no superinstructions, every check made
// per instruction — which the dual-mode golden and differential suites
// compare the fused stream against. The names are historical: "switch" was a
// second engine, a switch loop, until it became the test oracle
// (oracle_test.go).
type Dispatch uint8

const (
	// DispatchThreaded runs wide-fused superinstruction blocks under the
	// epoch-based branch counter, stepping only the tails that need
	// per-instruction resolution.
	DispatchThreaded Dispatch = iota
	// DispatchSwitch steps the unfused stream throughout.
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

// Dispatch returns the stream selection this VM executes with.
func (vm *VM) Dispatch() Dispatch { return vm.dispatch }

// sliceOracle is the one test seam: nil in every build of the product, and
// assigned only by internal/vm's own tests, which point DispatchSwitch VMs at
// the reference loop (oracle_test.go) to compare the engine against it.
var sliceOracle func(vm *VM, t *Thread, target SliceTarget) error

// dispatchSlice runs one slice: on the engine, unless a test installed the
// oracle for this VM's stream selection.
func (vm *VM) dispatchSlice(t *Thread, target SliceTarget) error {
	if sliceOracle != nil && vm.dispatch == DispatchSwitch {
		return sliceOracle(vm, t, target)
	}
	return vm.runThreaded(t, target)
}
