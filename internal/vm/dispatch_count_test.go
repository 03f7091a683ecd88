package vm

import (
	"testing"

	"repro/internal/env"
	"repro/internal/programs"
)

// countDispatches wraps every slot of v's fused stream in a closure that
// counts its calls, and returns the count. The step stream is left as it is,
// so a fused group's slow path, which runs step closures, counts as one
// dispatch.
func countDispatches(v *VM) *uint64 {
	n := new(uint64)
	for mi := range v.tcode {
		code := v.tcode[mi].code
		for pc, op := range code {
			code[pc] = func(c *tctx) bool {
				*n++
				return op(c)
			}
		}
	}
	return n
}

// dispatchesPinned is, per benchmark program at scale 1 with the harness's
// default seeds, the instructions it executes and the closure calls the fused
// stream makes to execute them. The instruction count is the program's; the
// dispatch count is the fusion tier's (widefuse.go), so any change to the
// families or to the DP shows here as a diff.
var dispatchesPinned = []struct {
	name                     string
	instructions, dispatches uint64
}{
	{"jess", 21_903_020, 11_263_293},
	{"jack", 21_314_551, 9_929_475},
	{"compress", 65_117_249, 26_947_293},
	{"db", 63_376_581, 26_151_366},
	{"mpegaudio", 50_060_858, 20_202_733},
	{"mtrt", 29_139_057, 11_723_947},
}

func TestDispatchCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("six whole programs are not -short")
	}
	for _, want := range dispatchesPinned {
		p, err := programs.Compile(want.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := New(Config{
			Program:     p,
			Env:         env.New(20030622),
			Coordinator: NewDefaultCoordinator(NewSeededPolicy(42, 1024, 8192)),
		})
		if err != nil {
			t.Fatal(err)
		}
		n := countDispatches(v)
		if err := v.Run(); err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if got := v.Stats().Instructions; got != want.instructions || *n != want.dispatches {
			t.Errorf("%s: %d instructions in %d dispatches, pinned %d in %d",
				want.name, v.Stats().Instructions, *n, want.instructions, want.dispatches)
		}
	}
}
