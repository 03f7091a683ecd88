// The oracle's column of the identity table (internal/identity), in the one
// test binary that links the reference loop: whole programs, where the
// in-package tests (epoch_edge_test.go, fault_identity_test.go) sweep the
// edges. It is an external test package so it can import the packages that
// themselves import vm.
package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/identity"
	"repro/internal/programs"
	"repro/internal/simtest"
	"repro/internal/vm"
)

// columns are the three ways to run a program, the oracle first: the others
// are compared against it.
var columns = append([]vm.Engine{vm.OracleEngine}, vm.Engines...)

// TestThreeWayGolden runs the golden programs standalone. A tracked cell
// pins the oracle to the golden file, which the root package's
// TestExecGolden and TestDispatchDualModeGolden pin the fused and the step
// stream to; an untracked cell, which no file pins, runs all three columns
// against the oracle.
func TestThreeWayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three-way golden sweep is not -short")
	}
	golden := identity.Golden(t)
	for _, p := range identity.Programs(t) {
		for _, track := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/track=%v", p.Name, track), func(t *testing.T) {
				want, ref, budget := golden[p.Name], "the golden file", golden[p.Name].Stats.Instructions
				cols := columns[:1]
				if !track {
					want, ref, cols = nil, "the oracle", columns
				}
				for i, c := range cols {
					if i == 1 {
						// The oracle's hook is package-global, so a cell runs its
						// oracle column serially; Go resumes the rest once every
						// cell's serial part has returned.
						t.Parallel()
					}
					var got identity.Capture
					c.In(func() { got = identity.Standalone(t, p.Prog, track, budget, c.D) })
					if want == nil {
						want = &got
					} else if !reflect.DeepEqual(got, *want) {
						t.Errorf("%s diverged from %s\n got: %+v\nwant: %+v", c, ref, got, *want)
					}
				}
			})
		}
	}
}

// TestThreeWayFuzzDispatch runs the fuzzer's dispatch stage — DispatchSwitch
// against DispatchThreaded on one fresh schedule per seed, full console and
// Stats — over the fuzz-smoke seed range with DispatchSwitch pointed at the
// oracle. (The differential smoke's run of the stage compares the step stream
// with the fused one, which completes the triangle.)
func TestThreeWayFuzzDispatch(t *testing.T) {
	seeds := uint64(240)
	if testing.Short() {
		seeds = 40
	}
	cfg := &simtest.FuzzConfig{}
	vm.OracleEngine.In(func() {
		for seed := uint64(0); seed < seeds; seed++ {
			p := fuzzgen.Generate(seed, fuzzgen.SizeSmall)
			if f := cfg.CheckProg(p, []string{simtest.StageDispatch}); f != nil {
				t.Fatalf("seed %d: fused stream diverged from the oracle:\n%s", seed, cfg.Report(p, f))
			}
		}
	})
}

// TestThreeWayEventLog compares the pair log of mtrt — the benchmark that
// reschedules threads, so the one whose log carries Switch records and their
// checksums as well as lock records — in every mode and every column.
// (internal/replication's TestDispatchDualModeEventLog compares the step log
// with the fused one over the whole golden set.)
func TestThreeWayEventLog(t *testing.T) {
	prog, err := programs.Compile("mtrt", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range identity.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			var want []byte
			for i, c := range columns {
				if i == 1 {
					t.Parallel() // after the oracle, as in TestThreeWayGolden
				}
				var got []byte
				c.In(func() { _, got = identity.PairLog(t, prog, mode, c.D) })
				if c.Oracle {
					want = got
					if len(want) == 0 {
						t.Fatal("empty event log")
					}
				} else {
					identity.SameLog(t, c.String(), got, want)
				}
			}
		})
	}
}
