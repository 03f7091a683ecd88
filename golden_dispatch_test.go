package ftvm_test

// Dual-mode golden gate for the interpreter's two streams: the entire golden
// program suite (every benchmark at scale 1 plus the deterministic fuzzgen
// slice — the same 31 programs TestExecGolden pins) is executed on the fused
// stream and stepped over the unfused one, and every observable — console
// output, the Stats counters, and the §4.2 rolling control-path checksums —
// must be identical between DispatchSwitch and DispatchThreaded.
// TestExecGolden pins the default stream against testdata; this gate pins the
// two against each other, so a divergence is attributed to the interpreter
// and not to a stale golden file. (internal/vm's TestThreeWayGolden adds the
// third column, the reference loop kept as a test oracle.)

import (
	"reflect"
	"sort"
	"testing"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/vm"
)

// captureRunDispatch is captureRun with an explicit engine selection;
// everything else (seeds, policy, budget, tracking) matches the golden
// capture configuration exactly.
func captureRunDispatch(t *testing.T, prog *ftvm.Program, d vm.Dispatch) *execCapture {
	t.Helper()
	environ := env.New(20030622)
	machine, err := vm.New(vm.Config{
		Program:         prog,
		Env:             environ,
		Coordinator:     vm.NewDefaultCoordinator(vm.NewSeededPolicy(1, 1024, 8192)),
		MaxInstructions: 400_000_000,
		TrackProgress:   true,
		Dispatch:        d,
	})
	if err != nil {
		t.Fatalf("vm.New (%v): %v", d, err)
	}
	if err := machine.Run(); err != nil {
		t.Fatalf("run (%v): %v", d, err)
	}
	cap := &execCapture{
		Console: environ.Console().Lines(),
		Stats:   machine.Stats(),
		Chks:    make(map[string]uint64),
	}
	for _, th := range machine.Threads() {
		cap.Chks[th.VTID] = th.Progress.Chk
	}
	return cap
}

func TestDispatchDualModeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-mode golden sweep is not -short")
	}
	cases := goldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			sw := captureRunDispatch(t, cases[name], vm.DispatchSwitch)
			th := captureRunDispatch(t, cases[name], vm.DispatchThreaded)
			if !reflect.DeepEqual(th.Console, sw.Console) {
				t.Errorf("console diverged between engines\nthreaded: %q\n  switch: %q", th.Console, sw.Console)
			}
			if th.Stats != sw.Stats {
				t.Errorf("stats diverged between engines\nthreaded: %+v\n  switch: %+v", th.Stats, sw.Stats)
			}
			if !reflect.DeepEqual(th.Chks, sw.Chks) {
				t.Errorf("progress checksums diverged between engines\nthreaded: %v\n  switch: %v", th.Chks, sw.Chks)
			}
		})
	}
}
