package minilang

import (
	"strings"
	"testing"

	"repro/internal/env"
	"repro/internal/vm"
)

// run compiles and executes src, returning the console lines.
func run(t *testing.T, src string) []string {
	t.Helper()
	prog, err := Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e := env.New(3)
	v, err := vm.New(vm.Config{Program: prog, Env: e, MaxInstructions: 100_000_000})
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e.Console().Lines()
}

func expectLines(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("console = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q (all: %q)", i, got[i], want[i], got)
		}
	}
}

func TestHelloArithmetic(t *testing.T) {
	got := run(t, `
func main() {
	var x int = 6;
	var y int = 7;
	print("answer " + itoa(x*y));
}`)
	expectLines(t, got, "answer 42")
}

func TestControlFlow(t *testing.T) {
	got := run(t, `
func main() {
	var sum int = 0;
	for (var i int = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { continue; }
		if (i > 7) { break; }
		sum = sum + i;
	}
	var j int = 0;
	while (true) {
		j = j + 1;
		if (j >= 3) { break; }
	}
	print(sum);
	print(j);
}`)
	expectLines(t, got, "16", "3") // 1+3+5+7
}

func TestFunctionsAndRecursion(t *testing.T) {
	got := run(t, `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
func main() { print(fib(15)); }`)
	expectLines(t, got, "610")
}

func TestFloatsAndMath(t *testing.T) {
	got := run(t, `
func main() {
	var r float = sqrt(2.0);
	var ok int = 0;
	if (r > 1.41421 && r < 1.41422) { ok = 1; }
	print(ok);
	print(int(floor(3.9)));
	print(pow(2.0, 10.0));
}`)
	expectLines(t, got, "1", "3", "1024")
}

func TestStrings(t *testing.T) {
	got := run(t, `
func main() {
	var s str = "hello" + " " + "world";
	print(len(s));
	print(substr(s, 0, 5));
	print(chr(charat(s, 6)));
	if ("abc" < "abd") { print("lt"); }
	if ("abc" == "abc") { print("eq"); }
	print(atoi("123") + 1);
}`)
	expectLines(t, got, "11", "hello", "w", "lt", "eq", "124")
}

func TestClassesAndArrays(t *testing.T) {
	got := run(t, `
class Point { x float; y float; next Point; }
func main() {
	var p Point = new Point;
	p.x = 3.0;
	p.y = 4.0;
	print(sqrt(p.x*p.x + p.y*p.y));
	var arr []int = new [5]int;
	for (var i int = 0; i < len(arr); i = i + 1) { arr[i] = i * i; }
	print(arr[4]);
	var pts [] Point = new [2]Point;
	pts[0] = p;
	if (pts[1] == null) { print("null slot"); }
	p.next = new Point;
	p.next.x = 9.0;
	print(p.next.x);
}`)
	expectLines(t, got, "5", "16", "null slot", "9")
}

func TestGlobalsAndInit(t *testing.T) {
	got := run(t, `
var counter int = 100;
var name str = "ftvm";
func bump() { counter = counter + 1; }
func main() {
	bump();
	bump();
	print(name + ":" + itoa(counter));
}`)
	expectLines(t, got, "ftvm:102")
}

func TestThreadsMonitors(t *testing.T) {
	got := run(t, `
class Counter { n int; }
var c Counter;
func worker(times int) {
	for (var i int = 0; i < times; i = i + 1) {
		lock (c) { c.n = c.n + 1; }
	}
}
func main() {
	c = new Counter;
	var t1 thread = spawn worker(500);
	var t2 thread = spawn worker(500);
	join(t1);
	join(t2);
	print(c.n);
}`)
	expectLines(t, got, "1000")
}

func TestWaitNotifyProducerConsumer(t *testing.T) {
	got := run(t, `
class Box { full int; value int; }
var box Box;
func producer() {
	for (var i int = 1; i <= 5; i = i + 1) {
		lock (box) {
			while (box.full == 1) { wait(box); }
			box.value = i * 10;
			box.full = 1;
			notifyall(box);
		}
	}
}
func main() {
	box = new Box;
	var p thread = spawn producer();
	var total int = 0;
	for (var i int = 0; i < 5; i = i + 1) {
		lock (box) {
			while (box.full == 0) { wait(box); }
			total = total + box.value;
			box.full = 0;
			notifyall(box);
		}
	}
	join(p);
	print(total);
}`)
	expectLines(t, got, "150") // 10+20+30+40+50
}

func TestShortCircuit(t *testing.T) {
	got := run(t, `
var calls int = 0;
func sideEffect() int { calls = calls + 1; return 1; }
func main() {
	if (false && sideEffect() == 1) { print("no"); }
	if (true || sideEffect() == 1) { print("yes"); }
	print(calls);
	var a int = 3;
	if (!(a == 4)) { print("neq"); }
}`)
	expectLines(t, got, "yes", "0", "neq")
}

func TestFileIO(t *testing.T) {
	prog, err := Compile("test", `
func main() {
	var fd int = fopen("data.txt", 1);
	fwrite(fd, "hello ");
	fwrite(fd, "file");
	fseek(fd, 0, 0);
	print(fread(fd, 5));
	print(ftell(fd));
	fclose(fd);
	print(fsize("data.txt"));
	print(fexists("nope"));
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e := env.New(3)
	v, err := vm.New(vm.Config{Program: prog, Env: e})
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	expectLines(t, e.Console().Lines(), "hello", "5", "10", "0")
	data, err := e.FileContents("data.txt")
	if err != nil || string(data) != "hello file" {
		t.Fatalf("file = %q (%v), want 'hello file'", data, err)
	}
}

func TestBreakInsideLockReleasesMonitor(t *testing.T) {
	got := run(t, `
class L { d int; }
var l L;
func main() {
	l = new L;
	for (var i int = 0; i < 3; i = i + 1) {
		lock (l) {
			if (i == 1) { break; }
		}
	}
	lock (l) { print("reacquired"); }
}`)
	expectLines(t, got, "reacquired")
}

func TestReturnInsideLockReleasesMonitor(t *testing.T) {
	got := run(t, `
class L { d int; }
var l L;
func f() int {
	lock (l) { return 7; }
}
func main() {
	l = new L;
	print(f());
	lock (l) { print("free"); }
}`)
	expectLines(t, got, "7", "free")
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no main", `func f() {}`, "no main"},
		{"unknown var", `func main() { x = 1; }`, "unknown variable"},
		{"type mismatch", `func main() { var x int = "s"; }`, "cannot assign"},
		{"bad cond", `func main() { if (1.5) {} }`, "condition must be int"},
		{"unknown func", `func main() { nope(); }`, "unknown function"},
		{"unknown class", `func main() { var p Missing = null; }`, "unknown class"},
		{"dup func", `func f() {} func f() {} func main() {}`, "duplicate function"},
		{"builtin shadow", `func print(s str) {} func main() {}`, "shadows a builtin"},
		{"break outside", `func main() { break; }`, "break outside"},
		{"arity", `func f(a int) {} func main() { f(); }`, "1"},
		{"float int mix", `func main() { var x float = 1.0 + 1; }`, "invalid operands"},
		{"assign to call", `func main() { clock() = 3; }`, "assignment target"},
		{"spawn value fn", `func f() int { return 1; } func main() { spawn f(); }`, "must not return"},
		{"a non-ASCII letter", `é`, "unexpected character"},
		{"a non-ASCII letter in an identifier", `func main() { var café = 1; }`, "unexpected character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile("bad", tc.src)
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestNestedIfElseChain(t *testing.T) {
	got := run(t, `
func classify(n int) str {
	if (n < 0) { return "neg"; }
	else if (n == 0) { return "zero"; }
	else if (n < 10) { return "small"; }
	else { return "big"; }
}
func main() {
	print(classify(0-5));
	print(classify(0));
	print(classify(3));
	print(classify(30));
}`)
	expectLines(t, got, "neg", "zero", "small", "big")
}

func TestBitOps(t *testing.T) {
	got := run(t, `
func main() {
	print(5 & 3);
	print(5 | 3);
	print(5 ^ 3);
	print(1 << 10);
	print(1024 >> 3);
}`)
	expectLines(t, got, "1", "7", "6", "1024", "128")
}

func TestHashDeterministic(t *testing.T) {
	a := run(t, `func main() { print(hash("ftvm")); }`)
	b := run(t, `func main() { print(hash("ftvm")); }`)
	if a[0] != b[0] {
		t.Fatalf("hash not deterministic: %s vs %s", a[0], b[0])
	}
}
