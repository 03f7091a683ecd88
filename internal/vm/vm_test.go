package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/heap"
)

// buildProgram assembles src, failing the test on error.
func buildProgram(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := bytecode.AssembleString(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func runProgram(t *testing.T, src string) (*VM, *env.Env) {
	t.Helper()
	p := buildProgram(t, src)
	e := env.New(1)
	v, err := New(Config{Program: p, Env: e, MaxInstructions: 50_000_000})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, e
}

const printNative = "native print io.print 1 void\n"

func TestArithmeticLoop(t *testing.T) {
	_, e := runProgram(t, printNative+`
method main 0 void
  iconst 0
  store 0
  iconst 0
  store 1
loop:
  load 0
  iconst 10
  icmp
  jz done
  load 1
  load 0
  iadd
  store 1
  load 0
  iconst 1
  iadd
  store 0
  jmp loop
done:
  load 1
  i2s
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "45" {
		t.Fatalf("console = %q, want [45]", lines)
	}
}

func TestFloatsStringsObjects(t *testing.T) {
	_, e := runProgram(t, printNative+`
class Point x y
method main 0 void
  new Point
  store 0
  load 0
  fconst 1.5
  putf Point.x
  load 0
  fconst 2.25
  putf Point.y
  load 0
  getf Point.x
  load 0
  getf Point.y
  fadd
  f2s
  sconst "sum="
  swap
  scat
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "sum=3.75" {
		t.Fatalf("console = %q, want [sum=3.75]", lines)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	_, e := runProgram(t, printNative+`
method fib 1 value
  load 0
  iconst 2
  icmp
  iconst 1
  iadd
  jz base
  load 0
  iconst 1
  isub
  call fib
  load 0
  iconst 2
  isub
  call fib
  iadd
  retv
base:
  load 0
  retv
end
method main 0 void
  iconst 15
  call fib
  i2s
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "610" {
		t.Fatalf("console = %q, want [610]", lines)
	}
}

func TestSpawnJoinMonitors(t *testing.T) {
	v, e := runProgram(t, printNative+`
static Main.counter
static Main.lock
class Lock dummy
method worker 1 void
  iconst 0
  store 1
loop:
  load 1
  iconst 1000
  icmp
  jz done
  gets Main.lock
  menter
  gets Main.counter
  iconst 1
  iadd
  puts Main.counter
  gets Main.lock
  mexit
  load 1
  iconst 1
  iadd
  store 1
  jmp loop
done:
  ret
end
method main 0 void
  new Lock
  puts Main.lock
  iconst 0
  puts Main.counter
  iconst 0
  spawn worker 1
  store 0
  iconst 1
  spawn worker 1
  store 1
  load 0
  join
  load 1
  join
  gets Main.counter
  i2s
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "2000" {
		t.Fatalf("console = %q, want [2000]", lines)
	}
	st := v.Stats()
	if st.LocksAcquired < 2000 {
		t.Fatalf("LocksAcquired = %d, want >= 2000", st.LocksAcquired)
	}
	if st.ThreadsSpawned != 2 {
		t.Fatalf("ThreadsSpawned = %d, want 2", st.ThreadsSpawned)
	}
}

func TestWaitNotify(t *testing.T) {
	_, e := runProgram(t, printNative+`
static Main.flag
static Main.cond
class Cond dummy
method producer 0 void
  gets Main.cond
  menter
  iconst 1
  puts Main.flag
  gets Main.cond
  notifyall
  gets Main.cond
  mexit
  ret
end
method main 0 void
  new Cond
  puts Main.cond
  iconst 0
  puts Main.flag
  spawn producer 0
  store 0
  gets Main.cond
  menter
check:
  gets Main.flag
  jnz ok
  gets Main.cond
  wait
  jmp check
ok:
  gets Main.cond
  mexit
  load 0
  join
  sconst "done"
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "done" {
		t.Fatalf("console = %q, want [done]", lines)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := buildProgram(t, `
class Lock dummy
static Main.l
method main 0 void
  new Lock
  puts Main.l
  gets Main.l
  menter
  gets Main.l
  wait
  ret
end
`)
	v, err := New(Config{Program: p, Env: env.New(1)})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	err = v.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// TestGCCollectsGarbage drops 5000 Nodes under a 1000-object GC threshold.
// In the locked variant each Node's monitor is taken and released before the
// Node is dropped: the monitor table follows the heap (runGC drops the
// monitors of collected objects and rewrites the survivors' headers), and an
// object allocated into a recycled slot starts with no monitor.
func TestGCCollectsGarbage(t *testing.T) {
	const src = `
class Node next
method main 0 void
  iconst 0
  store 0
loop:
  load 0
  iconst 5000
  icmp
  jz done
  new Node
%s
  load 0
  iconst 1
  iadd
  store 0
  jmp loop
done:
  ret
end
`
	for _, locked := range []bool{false, true} {
		body := "  pop"
		if locked {
			body = "  store 1\n  load 1\n  menter\n  load 1\n  mexit"
		}
		v, err := New(Config{Program: buildProgram(t, fmt.Sprintf(src, body)), Env: env.New(1), GCThreshold: 1000})
		if err != nil {
			t.Fatalf("new vm: %v", err)
		}
		if err := v.Run(); err != nil {
			t.Fatalf("locked=%v: run: %v", locked, err)
		}
		if v.Stats().GCs == 0 {
			t.Fatalf("locked=%v: expected at least one GC", locked)
		}
		if v.Heap().Size() > 2100 {
			t.Fatalf("locked=%v: heap size = %d, want garbage collected", locked, v.Heap().Size())
		}
		if !locked {
			continue
		}
		if len(v.monitors) > v.Heap().Size() {
			t.Fatalf("monitor table holds %d monitors for %d live objects", len(v.monitors), v.Heap().Size())
		}
		for i, m := range v.monitors {
			if o, err := v.hp.Get(m.Ref); err != nil || int(o.Mon) != i+1 {
				t.Fatalf("monitor %d (@%d) is not in its object's header", i, m.Ref)
			}
		}
		r, err := v.hp.AllocRecord(0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		m, err := v.monitorOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.LID != -1 || m.LASN != 0 {
			t.Fatalf("recycled slot @%d starts with monitor lid %d lasn %d, want a fresh one", r, m.LID, m.LASN)
		}
	}
}

func TestFinalizerRuns(t *testing.T) {
	// Finalizers may only perform deterministic local actions (§4.3):
	// intercepted natives are forbidden, so the finalizer records its run
	// in a static that main prints afterwards.
	_, e := runProgram(t, printNative+`
class Res tag
static Main.finCount
finalizer Res fin
native gc sys.gc 0 void
method fin 1 void
  gets Main.finCount
  iconst 1
  iadd
  puts Main.finCount
  ret
end
method main 0 void
  iconst 0
  puts Main.finCount
  new Res
  pop
  call gc
  call gc
  gets Main.finCount
  i2s
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "1" {
		t.Fatalf("console = %q, want [1]", lines)
	}
}

func TestNativeClockAndRand(t *testing.T) {
	_, e := runProgram(t, printNative+`
native clock sys.clock 0 value
method main 0 void
  call clock
  store 0
  call clock
  load 0
  icmp
  jnz increasing
  sconst "broken"
  call print
  ret
increasing:
  sconst "increasing"
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "increasing" {
		t.Fatalf("console = %q, want [increasing]", lines)
	}
}

func TestDeterministicRerun(t *testing.T) {
	src := printNative + `
static Main.counter
static Main.lock
class Lock dummy
method worker 1 void
  iconst 0
  store 1
loop:
  load 1
  iconst 500
  icmp
  jz done
  gets Main.lock
  menter
  gets Main.counter
  load 0
  iadd
  puts Main.counter
  gets Main.lock
  mexit
  load 1
  iconst 1
  iadd
  store 1
  jmp loop
done:
  ret
end
method main 0 void
  new Lock
  puts Main.lock
  iconst 0
  puts Main.counter
  iconst 1
  spawn worker 1
  store 0
  iconst 2
  spawn worker 1
  store 1
  load 0
  join
  load 1
  join
  gets Main.counter
  i2s
  call print
  ret
end
`
	run := func(seed int64) (string, Stats) {
		p := buildProgram(t, src)
		e := env.New(7)
		v, err := New(Config{
			Program:     p,
			Env:         e,
			Coordinator: NewDefaultCoordinator(NewSeededPolicy(seed, 64, 256)),
		})
		if err != nil {
			t.Fatalf("new vm: %v", err)
		}
		if err := v.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		lines := e.Console().Lines()
		return strings.Join(lines, "\n"), v.Stats()
	}
	out1, st1 := run(42)
	out2, st2 := run(42)
	if out1 != out2 {
		t.Fatalf("same seed, different output: %q vs %q", out1, out2)
	}
	if st1.Instructions != st2.Instructions {
		t.Fatalf("same seed, different instruction counts: %d vs %d", st1.Instructions, st2.Instructions)
	}
	out3, _ := run(43)
	if out3 != out1 {
		t.Fatalf("different interleaving should not change the final sum: %q vs %q", out1, out3)
	}
}

func TestSoftRefSurvivesInFTMode(t *testing.T) {
	_, e := runProgram(t, printNative+`
class Obj tag
native soft ref.soft 1 value
native softget ref.softget 1 value
native gc sys.gc 0 void
method main 0 void
  new Obj
  store 0
  load 0
  call soft
  store 1
  null
  store 0
  call gc
  load 1
  call softget
  null
  refeq
  jnz cleared
  sconst "alive"
  call print
  ret
cleared:
  sconst "cleared"
  call print
  ret
end
`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "alive" {
		t.Fatalf("console = %q, want [alive] (soft refs treated as strong in FT mode)", lines)
	}
}

func TestThreadVTIDs(t *testing.T) {
	v, _ := runProgram(t, `
method worker 0 void
  ret
end
method main 0 void
  spawn worker 0
  store 0
  spawn worker 0
  store 1
  load 0
  join
  load 1
  join
  ret
end
`)
	threads := v.Threads()
	if len(threads) != 3 {
		t.Fatalf("threads = %d, want 3", len(threads))
	}
	want := []string{"0", "0.1", "0.2"}
	for i, w := range want {
		if threads[i].VTID != w {
			t.Fatalf("thread %d vtid = %q, want %q", i, threads[i].VTID, w)
		}
	}
}

// TestHeapValueHelpers pins the encodings the interpreter relies on: a
// boolean is the int 1 or 0 that jz/jnz test, and Null is the null ref.
func TestHeapValueHelpers(t *testing.T) {
	if heap.BoolVal(true) != heap.IntVal(1) || heap.BoolVal(false) != heap.IntVal(0) {
		t.Fatal("BoolVal is not the int encoding 1/0")
	}
	if !heap.Null().IsNull() {
		t.Fatal("Null not null")
	}
}
