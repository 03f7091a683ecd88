package vm

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/programs"
)

// allocsDuring returns the number and total size of the Go heap allocations
// performed by f. The collector is off while f runs, so no GC cycle — and
// none of the runtime's own allocations one can bring, such as a new thread
// for a mark worker or a finalizer run — lands inside the window.
func allocsDuring(f func()) (mallocs, bytes uint64) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// mallocsDuring returns the number of Go heap allocations performed by f.
func mallocsDuring(f func()) uint64 {
	n, _ := allocsDuring(f)
	return n
}

// TestSConstAllocFree pins the decode-once property that pushing a string
// constant is allocation-free: the pool is interned into the VM heap once at
// load time, so a loop that executes sconst 100k times must allocate a
// bounded (setup-only) amount, not one string object per push.
func TestSConstAllocFree(t *testing.T) {
	src := `
method main 0 void
  iconst 0
  store 0
loop:
  load 0
  iconst 100000
  icmp
  jz done
  sconst "the quick brown fox jumps over the lazy dog"
  pop
  load 0
  iconst 1
  iadd
  store 0
  jmp loop
done:
  ret
end
`
	p := buildProgram(t, src)
	e := env.New(1)
	v, err := New(Config{Program: p, Env: e, MaxInstructions: 50_000_000})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	n := mallocsDuring(func() {
		if err := v.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	// 100k sconst executions: the pre-interning interpreter allocated ≥100k
	// string objects here. Allow generous slack for scheduler/runtime noise.
	if n > 10_000 {
		t.Errorf("sconst loop performed %d allocations, want bounded setup-only (<10000)", n)
	}
}

// TestThreadedHotLoopAllocFree pins the engine's zero-allocation property on
// both streams: the execution context (tctx) is one reusable struct per VM
// and the compiled closure streams are built at construction, so a
// multi-million instruction loop must not allocate per iteration — only the
// bounded setup (runtime noise, the odd GC bookkeeping) is allowed. The
// loops are an arithmetic one and an uncontended monitorenter/monitorexit
// pair on one object (the monitor lives in the object's header).
func TestThreadedHotLoopAllocFree(t *testing.T) {
	const loop = `
loop:
  load 1
  iconst 300000
  icmp
  jz done
%s
  load 1
  iconst 1
  iadd
  store 1
  jmp loop
done:
  ret
end
`
	progs := map[string]string{
		"arith": `
method main 0 void
  iconst 0
  store 0
  iconst 0
  store 1` + fmt.Sprintf(loop, `  load 0
  iconst 31
  imul
  load 1
  iadd
  store 0`),
		"lock": `
class L d
method main 0 void
  new L
  store 0
  iconst 0
  store 1` + fmt.Sprintf(loop, `  load 0
  menter
  load 0
  mexit`),
	}
	for name, src := range progs {
		p := buildProgram(t, src)
		for _, d := range []Dispatch{DispatchThreaded, DispatchSwitch} {
			for _, track := range []bool{false, true} {
				v, err := New(Config{Program: p, Env: env.New(1), MaxInstructions: 50_000_000, Dispatch: d, TrackProgress: track})
				if err != nil {
					t.Fatalf("%s: new vm (%v): %v", name, d, err)
				}
				n := mallocsDuring(func() {
					if err := v.Run(); err != nil {
						t.Fatalf("%s: run (%v): %v", name, d, err)
					}
				})
				// ~4M executed instructions, 300k iterations: one
				// allocation per iteration (or per block, or per folded
				// branch, or per acquisition) would show up as hundreds of
				// thousands.
				if n > 1000 {
					t.Errorf("%s %v track=%v: hot loop performed %d allocations, want bounded setup-only (<1000)", name, d, track, n)
				}
			}
		}
	}
}

// TestTrackedSharesFastTier pins the two halves of "tracking rides the fast
// tier". Same work: a tracked run of each benchmark program executes exactly
// the instructions, branches and everything else in Stats that an untracked
// run does. Same code: a tracked VM is built from the closure streams an
// untracked VM has — the fused one and the step one — never a third
// compilation of the program. A jump or conditional branch folds its
// compile-time edge in its own closure, so the only extra closures are one
// small wrapper per slot whose edge is dynamic: call, return, spawn, join.
func TestTrackedSharesFastTier(t *testing.T) {
	for _, name := range programs.Names() {
		p, err := programs.Compile(name, 1)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		// Count over the program vm.New compiles: with $joinwait and $finish.
		aug, _, _ := augment(p)
		res, err := bytecode.Predecode(aug)
		if err != nil {
			t.Fatal(err)
		}
		dynamic := func(in bytecode.RInstr) int {
			switch in.Op {
			case bytecode.OpCall, bytecode.OpRet, bytecode.OpRetV, bytecode.OpSpawn, bytecode.OpJoin:
				return 1
			}
			return 0
		}
		slots, methods := 0, 0
		wrapped := [2]int{} // fused stream, step stream
		for mi, code := range res.Wide {
			if code != nil {
				methods++
			}
			slots += len(code)
			for pc := range code {
				wrapped[0] += dynamic(code[pc])
				wrapped[1] += dynamic(res.Methods[mi][pc])
			}
		}
		// Each VM is built three times and the least count kept: what
		// vm.New allocates is the same every time, and anything else in the
		// process — a first-use initialisation, another goroutine — only
		// ever adds to one window.
		build := func(track bool, d Dispatch) (v *VM, mallocs, bytes uint64) {
			mallocs, bytes = math.MaxUint64, math.MaxUint64
			for range 3 {
				var err error
				m, b := allocsDuring(func() {
					v, err = New(Config{
						Program: p, Env: env.New(1), TrackProgress: track, Dispatch: d,
						Coordinator: NewDefaultCoordinator(NewSeededPolicy(5, 1024, 8192)),
					})
				})
				if err != nil {
					t.Fatalf("%s: new vm: %v", name, err)
				}
				mallocs, bytes = min(mallocs, m), min(bytes, b)
			}
			return v, mallocs, bytes
		}
		// A DispatchSwitch VM compiles the step stream only, so the
		// difference to it is what the fused stream costs.
		_, stepOnly, _ := build(true, DispatchSwitch)
		plain, plainMallocs, plainBytes := build(false, DispatchThreaded)
		tracked, trackedMallocs, trackedBytes := build(true, DispatchThreaded)
		// One stream is at most a closure per slot and a slot array per
		// method; a wrapper is a code pointer and the wrapped closure, 16
		// bytes, on the dynamic-edge slots only.
		const slack = 64
		if limit := uint64(slots + methods + wrapped[0] + slack); trackedMallocs-stepOnly > limit {
			t.Errorf("%s: the tracked VM's fused closures took %d allocations; one stream of %d slots in %d methods with %d wrappers allows %d",
				name, trackedMallocs-stepOnly, slots, methods, wrapped[0], limit)
		}
		wrappers := uint64(wrapped[0] + wrapped[1])
		if trackedMallocs > plainMallocs+wrappers+slack || trackedBytes > plainBytes+16*(wrappers+slack) {
			t.Errorf("%s: tracked vm.New made %d allocations / %d bytes, untracked %d / %d; %d wrappers allow %d / %d more",
				name, trackedMallocs, trackedBytes, plainMallocs, plainBytes, wrappers, wrappers, 16*wrappers)
		}
		if err := plain.Run(); err != nil {
			t.Fatalf("%s untracked: %v", name, err)
		}
		if err := tracked.Run(); err != nil {
			t.Fatalf("%s tracked: %v", name, err)
		}
		if plain.Stats() != tracked.Stats() {
			t.Errorf("%s: tracked run did different work\nuntracked: %+v\n  tracked: %+v", name, plain.Stats(), tracked.Stats())
		}
	}
}

// TestNativeCallAllocFree pins that a deterministic native call allocates
// nothing, untracked and tracked: the arguments are the operand-stack tail,
// the native context is the VM's own, and the math natives return their
// result in args[0]. 100k calls each of math.sqrt and math.pow at three
// allocations a call would be 600k.
func TestNativeCallAllocFree(t *testing.T) {
	src := `
native sqrt math.sqrt 1 value
native pow math.pow 2 value
method main 0 void
  iconst 0
  store 0
  fconst 2.0
  store 1
loop:
  load 0
  iconst 100000
  icmp
  jz done
  load 1
  call sqrt
  fconst 1.5
  call pow
  store 1
  load 0
  iconst 1
  iadd
  store 0
  jmp loop
done:
  ret
end
`
	p := buildProgram(t, src)
	for _, track := range []bool{false, true} {
		v, err := New(Config{Program: p, Env: env.New(1), MaxInstructions: 50_000_000, TrackProgress: track})
		if err != nil {
			t.Fatalf("new vm: %v", err)
		}
		n := mallocsDuring(func() {
			if err := v.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
		if calls := v.Stats().NativeCalls; calls != 200_000 {
			t.Fatalf("track=%v: %d native calls, want 200000", track, calls)
		}
		if n > 1000 {
			t.Errorf("track=%v: 200k native calls performed %d allocations, want bounded setup-only (<1000)", track, n)
		}
	}
}
