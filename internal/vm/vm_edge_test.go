package vm

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/heap"
)

// runExpectFatal runs src and asserts a fatal error containing wantSub.
func runExpectFatal(t *testing.T, src, wantSub string) {
	t.Helper()
	p := buildProgram(t, src)
	v, err := New(Config{Program: p, Env: env.New(1), MaxInstructions: 1_000_000})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	err = v.Run()
	var fe *FatalError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FatalError containing %q", err, wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q missing %q", err, wantSub)
	}
}

func TestFatalDivisionByZero(t *testing.T) {
	runExpectFatal(t, `
method main 0 void
  iconst 1
  iconst 0
  idiv
  pop
  ret
end`, "division by zero")
}

func TestFatalNullFieldAccess(t *testing.T) {
	runExpectFatal(t, `
class C x
method main 0 void
  null
  getf C.x
  pop
  ret
end`, "null reference")
}

func TestFatalArrayOOB(t *testing.T) {
	runExpectFatal(t, `
method main 0 void
  iconst 3
  newarr int
  iconst 9
  aload
  pop
  ret
end`, "out of bounds")
}

func TestFatalKindMismatch(t *testing.T) {
	runExpectFatal(t, `
method main 0 void
  fconst 1.5
  iconst 1
  iadd
  pop
  ret
end`, "not an int")
}

func TestFatalMonitorExitWithoutOwnership(t *testing.T) {
	runExpectFatal(t, `
class L d
method main 0 void
  new L
  mexit
  ret
end`, "not owned")
}

func TestFatalWaitWithoutMonitor(t *testing.T) {
	runExpectFatal(t, `
class L d
method main 0 void
  new L
  wait
  ret
end`, "not owned")
}

func TestFatalNotifyWithoutMonitor(t *testing.T) {
	runExpectFatal(t, `
class L d
method main 0 void
  new L
  notify
  ret
end`, "not owned")
}

func TestFatalInstructionBudget(t *testing.T) {
	p := buildProgram(t, `
method main 0 void
loop:
  jmp loop
end`)
	v, err := New(Config{Program: p, Env: env.New(1), MaxInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); !errors.Is(err, ErrInstrBudget) {
		t.Fatalf("err = %v, want budget", err)
	}
}

func TestReentrantMonitor(t *testing.T) {
	_, e := runProgram(t, printNative+`
class L d
static M.l
method inner 0 void
  gets M.l
  menter
  sconst "inner"
  call print
  gets M.l
  mexit
  ret
end
method main 0 void
  new L
  puts M.l
  gets M.l
  menter
  call inner
  gets M.l
  mexit
  sconst "done"
  call print
  ret
end`)
	lines := e.Console().Lines()
	if len(lines) != 2 || lines[0] != "inner" || lines[1] != "done" {
		t.Fatalf("console = %v", lines)
	}
}

func TestHaltStopsAllThreads(t *testing.T) {
	v, e := runProgram(t, printNative+`
method spinner 0 void
loop:
  yield
  jmp loop
end
method main 0 void
  spawn spinner 0
  pop
  sconst "halting"
  call print
  halt
end`)
	lines := e.Console().Lines()
	if len(lines) != 1 || lines[0] != "halting" {
		t.Fatalf("console = %v", lines)
	}
	_ = v
}

func TestKillFromAnotherGoroutine(t *testing.T) {
	p := buildProgram(t, `
method main 0 void
loop:
  jmp loop
end`)
	v, err := New(Config{Program: p, Env: env.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- v.Run() }()
	v.Kill()
	if err := <-done; err != nil {
		t.Fatalf("killed run returned %v", err)
	}
	if !v.Killed() {
		t.Fatal("Killed() false")
	}
}

func TestVMRunsOnlyOnce(t *testing.T) {
	p := buildProgram(t, "method main 0 void\n  ret\nend")
	v, _ := New(Config{Program: p, Env: env.New(1)})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); !errors.Is(err, ErrHalted) {
		t.Fatalf("second run: %v", err)
	}
}

func TestNotifyWakesFIFO(t *testing.T) {
	// Two waiters; notify wakes exactly one (the first), notifyall the rest.
	_, e := runProgram(t, printNative+`
class L d
static M.l
static M.count
method waiter 1 void
  gets M.l
  menter
  gets M.count
  iconst 1
  iadd
  puts M.count
  gets M.l
  wait
  load 0
  i2s
  sconst "woke "
  swap
  scat
  call print
  gets M.l
  mexit
  ret
end
method main 0 void
  new L
  puts M.l
  iconst 0
  puts M.count
  iconst 1
  spawn waiter 1
  store 0
  iconst 2
  spawn waiter 1
  store 1
wait_ready:
  gets M.count
  iconst 2
  icmp
  jnz spin
  jmp ready
spin:
  yield
  jmp wait_ready
ready:
  gets M.l
  menter
  gets M.l
  notifyall
  gets M.l
  mexit
  load 0
  join
  load 1
  join
  sconst "all joined"
  call print
  ret
end`)
	lines := e.Console().Lines()
	if len(lines) != 3 || lines[2] != "all joined" {
		t.Fatalf("console = %v", lines)
	}
	woke := map[string]bool{lines[0]: true, lines[1]: true}
	if !woke["woke 1"] || !woke["woke 2"] {
		t.Fatalf("wrong wakers: %v", lines)
	}
}

func TestStringOpcodes(t *testing.T) {
	_, e := runProgram(t, printNative+`
method main 0 void
  sconst "hello"
  slen
  i2s
  call print
  sconst "abc"
  sconst "abd"
  scmp
  i2s
  call print
  iconst 88
  chr
  call print
  sconst "hash me"
  hashstr
  sconst "hash me"
  hashstr
  icmp
  i2s
  call print
  fconst 1.5
  f2s
  call print
  sconst "42"
  s2i
  iconst 1
  iadd
  i2s
  call print
  ret
end`)
	want := []string{"5", "-1", "X", "0", "1.5", "43"}
	lines := e.Console().Lines()
	if len(lines) != len(want) {
		t.Fatalf("console = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestBinaryImageExecution(t *testing.T) {
	// A program survives a binary round trip and still runs.
	p1 := buildProgram(t, printNative+`
method main 0 void
  iconst 6
  iconst 7
  imul
  i2s
  call print
  ret
end`)
	img, err := bytecode.EncodeBytes(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := bytecode.DecodeBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	e := env.New(1)
	v, err := New(Config{Program: p2, Env: e})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if lines := e.Console().Lines(); len(lines) != 1 || lines[0] != "42" {
		t.Fatalf("console = %v", lines)
	}
}

func TestDeterministicStatsAcrossReruns(t *testing.T) {
	src := printNative + `
method worker 0 void
  iconst 0
  store 0
loop:
  load 0
  iconst 100
  icmp
  jz out
  load 0
  iconst 1
  iadd
  store 0
  yield
  jmp loop
out:
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
end`
	run := func() Stats {
		p := buildProgram(t, src)
		v, err := New(Config{
			Program:     p,
			Env:         env.New(3),
			Coordinator: NewDefaultCoordinator(NewSeededPolicy(77, 32, 128)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return v.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestContendedNativeRollbackRestoresStack pins the rollback of a contended
// AcquiresLocks native. Its arguments are the operand-stack tail the call
// truncated, so parking the thread must leave the stack exactly as it was
// before the call — length and every value — with the pc back on the call and
// the attempt's counters undone.
func TestContendedNativeRollbackRestoresStack(t *testing.T) {
	p := buildProgram(t, `
class Obj d
native locktouch sys.locktouch 1 void
method main 0 void
  ret
end`)
	v, err := New(Config{Program: p, Env: env.New(1)})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	owner, err := v.newThread(nil, v.prog.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	caller, err := v.newThread(owner, v.prog.Entry, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := v.hp.AllocRecord(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := v.monitorOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	m.owner, m.entries = owner, 1
	touch := slices.IndexFunc(v.prog.Methods, func(m *bytecode.Method) bool { return m.Name == "locktouch" })
	f := caller.Top()
	f.Stack = append(f.Stack, heap.IntVal(math.MinInt64), heap.FloatVal(math.Copysign(0, -1)), heap.RefVal(obj))
	before, pc := slices.Clone(f.Stack), f.PC
	caller.BrCnt, v.stats.Branches = 1, 1 // the OpCall's tick
	if err := v.doCall(caller, f, int32(touch)); err != nil {
		t.Fatalf("contended call: %v", err)
	}
	if caller.state != StateBlocked {
		t.Fatalf("caller is %v, want blocked on the held monitor", caller.state)
	}
	if !slices.Equal(f.Stack, before) || f.PC != pc {
		t.Fatalf("rollback left stack %v pc %d, want %v pc %d", f.Stack, f.PC, before, pc)
	}
	if caller.BrCnt != 0 || v.stats.Branches != 0 || v.stats.NativeCalls != 0 {
		t.Fatalf("rollback left br_cnt %d, branches %d, native calls %d; want 0/0/0",
			caller.BrCnt, v.stats.Branches, v.stats.NativeCalls)
	}
}
