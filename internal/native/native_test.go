package native

import (
	"errors"
	"testing"

	"repro/internal/env"
	"repro/internal/heap"
)

// fakeCtx satisfies Ctx for direct native invocation in tests.
type fakeCtx struct {
	h   *heap.Heap
	e   *env.Env
	p   *env.Process
	seq uint64
	tid string
	st  map[string]any
	gcs int
}

func newFakeCtx() *fakeCtx {
	e := env.New(1)
	return &fakeCtx{h: heap.New(), e: e, p: e.Attach(), tid: "0", st: map[string]any{}}
}

func (c *fakeCtx) Heap() *heap.Heap            { return c.h }
func (c *fakeCtx) Process() *env.Process       { return c.p }
func (c *fakeCtx) Environment() *env.Env       { return c.e }
func (c *fakeCtx) ThreadID() string            { return c.tid }
func (c *fakeCtx) NextOutputSeq() uint64       { c.seq++; return c.seq }
func (c *fakeCtx) MonitorEnter(heap.Ref) error { return nil }
func (c *fakeCtx) MonitorExit(heap.Ref) error  { return nil }
func (c *fakeCtx) RunGC()                      { c.gcs++ }
func (c *fakeCtx) HandlerState(n string) any   { return c.st[n] }

func (c *fakeCtx) str(t *testing.T, s string) heap.Value {
	t.Helper()
	r, err := c.h.AllocString(s)
	if err != nil {
		t.Fatal(err)
	}
	return heap.RefVal(r)
}

func call(t *testing.T, c *fakeCtx, sig string, args ...heap.Value) []heap.Value {
	t.Helper()
	def, ok := StdLib().Lookup(sig)
	if !ok {
		t.Fatalf("no native %s", sig)
	}
	out, err := def.Fn(c, args)
	if err != nil {
		t.Fatalf("%s: %v", sig, err)
	}
	return out
}

func TestRegistryCatalog(t *testing.T) {
	r := StdLib()
	if len(r.Sigs()) < 20 {
		t.Fatalf("stdlib too small: %v", r.Sigs())
	}
	nd := r.NonDeterministicSigs()
	if len(nd) == 0 || len(nd) >= 100 {
		t.Fatalf("non-deterministic natives = %d (paper: fewer than 100)", len(nd))
	}
	if !r.Intercepted("io.print") || !r.Intercepted("sys.clock") || !r.Intercepted("fs.open") {
		t.Fatal("interception flags wrong")
	}
	if r.Intercepted("math.sqrt") || r.Intercepted("sys.threadid") {
		t.Fatal("deterministic natives should not be intercepted")
	}
	if err := r.Register(&Def{Sig: "io.print", Arity: 1, Fn: func(Ctx, []heap.Value) ([]heap.Value, error) { return nil, nil }}); !errors.Is(err, ErrDuplicateNative) {
		t.Fatalf("duplicate registration: %v", err)
	}
	if err := r.Register(&Def{}); err == nil {
		t.Fatal("empty def accepted")
	}
}

func TestConsoleAndChannelNatives(t *testing.T) {
	c := newFakeCtx()
	call(t, c, "io.print", c.str(t, "line1"))
	call(t, c, "io.print", c.str(t, "line2"))
	lines := c.e.Console().Lines()
	if len(lines) != 2 || lines[0] != "line1" {
		t.Fatalf("console = %v", lines)
	}
	call(t, c, "chan.send", c.str(t, "msg"))
	if sent := c.e.Messages().Sent(); len(sent) != 1 || sent[0] != "msg" {
		t.Fatalf("sent = %v", sent)
	}
	c.e.Messages().Inject("inbound")
	out := call(t, c, "chan.recv")
	s, err := c.h.StringAt(out[0].R())
	if err != nil || s != "inbound" {
		t.Fatalf("recv = %q (%v)", s, err)
	}
	out = call(t, c, "chan.recv")
	if !out[0].IsNull() {
		t.Fatalf("empty recv = %v", out[0])
	}
}

func TestFileNatives(t *testing.T) {
	c := newFakeCtx()
	out := call(t, c, "fs.open", c.str(t, "f.txt"), heap.IntVal(1))
	fd := out[0].I
	if fd < 0 {
		t.Fatalf("open failed: %d", fd)
	}
	if out := call(t, c, "fs.write", heap.IntVal(fd), c.str(t, "abcdef")); out[0].I != 6 {
		t.Fatalf("write = %v", out)
	}
	if out := call(t, c, "fs.seek", heap.IntVal(fd), heap.IntVal(2), heap.IntVal(0)); out[0].I != 2 {
		t.Fatalf("seek = %v", out)
	}
	out = call(t, c, "fs.read", heap.IntVal(fd), heap.IntVal(3))
	s, _ := c.h.StringAt(out[0].R())
	if s != "cde" {
		t.Fatalf("read = %q", s)
	}
	if out := call(t, c, "fs.tell", heap.IntVal(fd)); out[0].I != 5 {
		t.Fatalf("tell = %v", out)
	}
	if out := call(t, c, "fs.size", c.str(t, "f.txt")); out[0].I != 6 {
		t.Fatalf("size = %v", out)
	}
	if out := call(t, c, "fs.exists", c.str(t, "f.txt")); out[0].I != 1 {
		t.Fatalf("exists = %v", out)
	}
	call(t, c, "fs.close", heap.IntVal(fd))
	if out := call(t, c, "fs.delete", c.str(t, "f.txt")); out[0].I != 1 {
		t.Fatalf("delete = %v", out)
	}
	if out := call(t, c, "fs.delete", c.str(t, "f.txt")); out[0].I != 0 {
		t.Fatalf("second delete = %v (idempotent replay returns 0)", out)
	}
	// Failure paths return status values, not errors (recoverable for the
	// program; only environment/VM breakage is fatal).
	if out := call(t, c, "fs.open", c.str(t, "missing"), heap.IntVal(0)); out[0].I != -1 {
		t.Fatalf("open missing = %v", out)
	}
	if out := call(t, c, "fs.write", heap.IntVal(999), c.str(t, "x")); out[0].I != -1 {
		t.Fatalf("write bad fd = %v", out)
	}
}

func TestFDTranslationHook(t *testing.T) {
	c := newFakeCtx()
	out := call(t, c, "fs.open", c.str(t, "real.txt"), heap.IntVal(1))
	realFD := out[0].I
	call(t, c, "fs.write", heap.IntVal(realFD), c.str(t, "data"))
	// Install a translator mapping logged fd 1000 -> realFD.
	c.st[HandlerFile] = mapTranslator{1000: realFD}
	if out := call(t, c, "fs.tell", heap.IntVal(1000)); out[0].I != 4 {
		t.Fatalf("translated tell = %v", out)
	}
}

type mapTranslator map[int64]int64

func (m mapTranslator) Real(logged int64) (int64, error) {
	if r, ok := m[logged]; ok {
		return r, nil
	}
	return logged, nil
}

func TestMathNatives(t *testing.T) {
	c := newFakeCtx()
	if out := call(t, c, "math.sqrt", heap.FloatVal(16)); out[0].F() != 4 {
		t.Fatalf("sqrt = %v", out)
	}
	if out := call(t, c, "math.pow", heap.FloatVal(2), heap.FloatVal(8)); out[0].F() != 256 {
		t.Fatalf("pow = %v", out)
	}
	if out := call(t, c, "math.floor", heap.FloatVal(2.9)); out[0].F() != 2 {
		t.Fatalf("floor = %v", out)
	}
	if _, err := mustDef(t, "math.sqrt").Fn(c, []heap.Value{heap.IntVal(4)}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("int arg: %v", err)
	}
}

func mustDef(t *testing.T, sig string) *Def {
	t.Helper()
	d, ok := StdLib().Lookup(sig)
	if !ok {
		t.Fatal(sig)
	}
	return d
}

func TestSysNatives(t *testing.T) {
	c := newFakeCtx()
	a := call(t, c, "sys.clock")[0].I
	b := call(t, c, "sys.clock")[0].I
	if b <= a {
		t.Fatalf("clock not increasing: %d, %d", a, b)
	}
	call(t, c, "sys.gc")
	if c.gcs != 1 {
		t.Fatal("sys.gc did not reach the VM")
	}
	out := call(t, c, "sys.threadid")
	s, _ := c.h.StringAt(out[0].R())
	if s != "0" {
		t.Fatalf("threadid = %q", s)
	}
}

func TestSoftWeakRefNatives(t *testing.T) {
	c := newFakeCtx()
	obj, _ := c.h.AllocIntArr(1)
	holder := call(t, c, "ref.soft", heap.RefVal(obj))[0]
	got := call(t, c, "ref.softget", holder)[0]
	if got.R() != obj {
		t.Fatalf("softget = %v", got)
	}
	wholder := call(t, c, "ref.weak", heap.RefVal(obj))[0]
	if got := call(t, c, "ref.weakget", wholder)[0]; got.R() != obj {
		t.Fatalf("weakget = %v", got)
	}
}
