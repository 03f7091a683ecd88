package replication

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// replayVM builds a VM (never Run) purely as a native-execution context.
func replayVM(t *testing.T, environ *env.Env) *vm.VM {
	t.Helper()
	prog, err := bytecode.AssembleString("method main 0 void\n  ret\nend")
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{Program: prog, Env: environ})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func defOf(t *testing.T, sig string) *native.Def {
	t.Helper()
	d, ok := native.StdLib().Lookup(sig)
	if !ok {
		t.Fatal(sig)
	}
	return d
}

func strArg(t *testing.T, v *vm.VM, s string) heap.Value {
	t.Helper()
	r, err := v.Heap().AllocString(s)
	if err != nil {
		t.Fatal(err)
	}
	return heap.RefVal(r)
}

func TestUncertainChannelSendPerformed(t *testing.T) {
	environ := env.New(1)
	environ.Messages().Send("0", 1, "already delivered")
	intent := &wire.OutputIntent{TID: "0", NatSeq: 1, Sig: "chan.send", OutSeq: 1}
	a, err := analyze(walkOf([]wire.Record{intent}))
	if err != nil {
		t.Fatal(err)
	}
	nr := newNativeReplay(a, sehandler.DefaultSet())
	v := replayVM(t, environ)
	th := &vm.Thread{VTID: "0", NatSeq: 1}
	res, err := nr.invoke(v, th, defOf(t, "chan.send"), []heap.Value{strArg(t, v, "already delivered")})
	if err != nil || len(res) != 0 {
		t.Fatalf("res = %v (%v)", res, err)
	}
	if nr.TestedOuts != 1 || nr.SkippedOuts != 1 {
		t.Fatalf("tested=%d skipped=%d", nr.TestedOuts, nr.SkippedOuts)
	}
	if got := environ.Messages().Sent(); len(got) != 1 {
		t.Fatalf("sent = %v (must stay exactly-once)", got)
	}
	if th.OutSeq != 1 {
		t.Fatalf("OutSeq = %d (skip must consume the sequence number)", th.OutSeq)
	}
}

func TestUncertainChannelSendNotPerformed(t *testing.T) {
	environ := env.New(1)
	intent := &wire.OutputIntent{TID: "0", NatSeq: 1, Sig: "chan.send", OutSeq: 1}
	a, err := analyze(walkOf([]wire.Record{intent}))
	if err != nil {
		t.Fatal(err)
	}
	nr := newNativeReplay(a, sehandler.DefaultSet())
	v := replayVM(t, environ)
	th := &vm.Thread{VTID: "0", NatSeq: 1}
	if _, err := nr.invoke(v, th, defOf(t, "chan.send"), []heap.Value{strArg(t, v, "lost message")}); err != nil {
		t.Fatal(err)
	}
	if nr.Reinvoked != 1 {
		t.Fatalf("reinvoked = %d", nr.Reinvoked)
	}
	if got := environ.Messages().Sent(); len(got) != 1 || got[0] != "lost message" {
		t.Fatalf("sent = %v (send must be re-performed)", got)
	}
}

func TestUncertainFileWrite(t *testing.T) {
	environ := env.New(1)
	environ.PutFile("f", []byte("hello world"))

	runCase := func(data string, wantPerformed bool) (*nativeReplay, *vm.VM) {
		handlers := sehandler.DefaultSet()
		fh, _ := handlers.Get(native.HandlerFile)
		// The backup received open + a write ending at offset 6 earlier.
		if err := fh.Receive(encodeFileOpTest(1 /*open*/, 3, 0, "f")); err != nil {
			t.Fatal(err)
		}
		if err := fh.Receive(encodeFileOpTest(2 /*write*/, 3, 6, "")); err != nil {
			t.Fatal(err)
		}
		intent := &wire.OutputIntent{TID: "0", NatSeq: 1, Sig: "fs.write"}
		a, err := analyze(walkOf([]wire.Record{intent}))
		if err != nil {
			t.Fatal(err)
		}
		nr := newNativeReplay(a, handlers)
		v := replayVM(t, environ)
		v.SetHandlerState(native.HandlerFile, fh.State())
		if err := handlers.RestoreAll(sehandler.Ctx{Heap: v.Heap(), Env: environ, Proc: v.Process()}); err != nil {
			t.Fatal(err)
		}
		th := &vm.Thread{VTID: "0", NatSeq: 1}
		res, err := nr.invoke(v, th, defOf(t, "fs.write"), []heap.Value{heap.IntVal(3), strArg(t, v, data)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].I != int64(len(data)) {
			t.Fatalf("write result = %v", res)
		}
		_ = wantPerformed
		return nr, v
	}

	// The write of "world" at offset 6 already happened (content matches):
	// test says performed, but fs.write returns a value, so it is re-run
	// idempotently — content must be unchanged.
	nr, _ := runCase("world", true)
	if nr.TestedOuts != 1 {
		t.Fatalf("tested = %d", nr.TestedOuts)
	}
	data, _ := environ.FileContents("f")
	if string(data) != "hello world" {
		t.Fatalf("contents = %q", data)
	}

	// A write that never landed ("WORLD" differs): re-executed at the
	// recovered offset.
	environ.PutFile("f", []byte("hello "))
	_, _ = runCase("WORLD", false)
	data, _ = environ.FileContents("f")
	if string(data) != "hello WORLD" {
		t.Fatalf("contents after recovery write = %q", data)
	}
}

// encodeFileOpTest mirrors the file handler's wire format (op, varint fd,
// varint aux, uvarint name length, name).
func encodeFileOpTest(op byte, fd, aux int64, name string) []byte {
	var buf []byte
	buf = append(buf, op)
	buf = appendVarintT(buf, fd)
	buf = appendVarintT(buf, aux)
	buf = appendUvarintT(buf, uint64(len(name)))
	buf = append(buf, name...)
	return buf
}

func appendVarintT(b []byte, v int64) []byte {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return appendUvarintT(b, uv)
}

func appendUvarintT(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestCertainPrintReinvokeDedups(t *testing.T) {
	environ := env.New(1)
	// The primary performed print seq 1 before crashing later.
	environ.Console().Write("0", 1, "once")
	intent := &wire.OutputIntent{TID: "0", NatSeq: 1, Sig: "io.print", OutSeq: 1}
	tail := &wire.NativeResult{TID: "0", NatSeq: 2, Sig: "sys.clock", Results: []wire.WireValue{{Kind: wire.WireInt, I: 5}}}
	a, err := analyze(walkOf([]wire.Record{intent, tail}))
	if err != nil {
		t.Fatal(err)
	}
	nr := newNativeReplay(a, sehandler.DefaultSet())
	v := replayVM(t, environ)
	th := &vm.Thread{VTID: "0", NatSeq: 1}
	if _, err := nr.invoke(v, th, defOf(t, "io.print"), []heap.Value{strArg(t, v, "once")}); err != nil {
		t.Fatal(err)
	}
	if lines := environ.Console().Lines(); len(lines) != 1 {
		t.Fatalf("console = %v (reinvoke must dedup)", lines)
	}
	// And the logged clock result is fed next.
	res, err := nr.invoke(v, th2(th), defOf(t, "sys.clock"), nil)
	if err != nil || len(res) != 1 || res[0].I != 5 {
		t.Fatalf("clock res = %v (%v)", res, err)
	}
}

func th2(t *vm.Thread) *vm.Thread { t.NatSeq = 2; return t }

func TestInvokeSigMismatchIsDivergence(t *testing.T) {
	environ := env.New(1)
	rec := &wire.NativeResult{TID: "0", NatSeq: 1, Sig: "sys.rand"}
	a, err := analyze(walkOf([]wire.Record{rec}))
	if err != nil {
		t.Fatal(err)
	}
	nr := newNativeReplay(a, sehandler.DefaultSet())
	v := replayVM(t, environ)
	th := &vm.Thread{VTID: "0", NatSeq: 1}
	if _, err := nr.invoke(v, th, defOf(t, "sys.clock"), nil); !errors.Is(err, ErrDivergence) {
		t.Fatalf("err = %v, want divergence", err)
	}
}

func TestToWireRejectsNonStringRefs(t *testing.T) {
	h := heap.New()
	arr, _ := h.AllocIntArr(2)
	if _, err := appendWire(nil, h, []heap.Value{heap.RefVal(arr)}); !errors.Is(err, ErrBadResult) {
		t.Fatalf("err = %v, want bad result", err)
	}
	// Null, ints, floats and strings all cross fine.
	s, _ := h.AllocString("x")
	wv, err := appendWire(nil, h, []heap.Value{heap.Null(), heap.IntVal(1), heap.FloatVal(2), heap.RefVal(s)})
	if err != nil || len(wv) != 4 {
		t.Fatalf("wv = %v (%v)", wv, err)
	}
	back, err := fromWire(h, wv)
	if err != nil || len(back) != 4 || !back[0].IsNull() || back[1].I != 1 || back[2].F() != 2 {
		t.Fatalf("back = %v (%v)", back, err)
	}
	if got, _ := h.StringAt(back[3].R()); got != "x" {
		t.Fatalf("string = %q", got)
	}
}

func TestBackupLoadRecordsRoutesHandlers(t *testing.T) {
	_, ep := transport.Pipe(4)
	b, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: ep})
	if err != nil {
		t.Fatal(err)
	}
	recs := []wire.Record{
		&wire.Heartbeat{Seq: 1}, // dropped
		&wire.NativeResult{
			TID: "0", NatSeq: 1, Sig: "fs.open",
			Results:     []wire.WireValue{{Kind: wire.WireInt, I: 3}},
			HandlerData: encodeFileOpTest(1, 3, 0, "f"),
		},
		&wire.LockAcq{TID: "0", TASN: 0, LID: 1, LASN: 0},
		&wire.Halt{}, // dropped so replay treats the log as a crash
	}
	if err := b.LoadRecords(recs); err != nil {
		t.Fatal(err)
	}
	if b.Store().Len() != 2 {
		t.Fatalf("stored = %d, want 2 (heartbeat and halt dropped)", b.Store().Len())
	}
	if b.Stats().ReceiveRoutings != 1 {
		t.Fatalf("receive routings = %d", b.Stats().ReceiveRoutings)
	}
	if ServeOutcome(0).String() == "" || OutcomePrimaryFailed.String() != "primary failed" {
		t.Fatal("outcome strings broken")
	}
}

// argSpy is the file handler with its Log observed: it renders the arguments
// and results the primary hands Log for each intercepted fs native.
type argSpy struct {
	*sehandler.FileHandler
	args, results map[string]string
}

func (s *argSpy) Log(ctx sehandler.Ctx, def *native.Def, args, results []heap.Value) ([]byte, error) {
	render := func(vals []heap.Value) string {
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = v.String()
			if str, err := ctx.Heap.StringAt(v.R()); v.Kind == heap.KindRef && err == nil {
				out[i] = fmt.Sprintf("%q", str)
			}
		}
		return strings.Join(out, " ")
	}
	s.args[def.Sig], s.results[def.Sig] = render(args), render(results)
	return s.FileHandler.Log(ctx, def, args, results)
}

// TestInterceptedArgsReachLogIntact: a native's arguments are a view of the
// caller's operand stack, and the primary logs an intercepted native's
// handler state after it returns — so Log must still see what the program
// passed (the descriptor fs.open returned and the data), not anything the
// native or the call path wrote over them (such as fs.write's byte count).
func TestInterceptedArgsReachLogIntact(t *testing.T) {
	prog, err := bytecode.AssembleString(`
native open fs.open 2 value
native write fs.write 2 value
method main 0 void
  sconst "f.txt"
  iconst 1
  call open
  store 0
  load 0
  sconst "twelve bytes"
  call write
  store 1
  ret
end`)
	if err != nil {
		t.Fatal(err)
	}
	spy := &argSpy{FileHandler: sehandler.NewFileHandler(), args: map[string]string{}, results: map[string]string{}}
	set, err := sehandler.NewSet(spy, sehandler.NewChannelHandler(), sehandler.NewDevicesHandler())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: &fakeBackend{}, Handlers: set})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(vm.Config{Program: prog, Env: env.New(1), Coordinator: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	fd := spy.results["fs.open"]
	if fd == "" || fd == "-1" || fd == "12" {
		t.Fatalf("fs.open logged result %q, want a descriptor other than -1 and 12", fd)
	}
	if got, want := spy.args["fs.open"], `"f.txt" 1`; got != want {
		t.Errorf("fs.open Log saw args %s, want %s", got, want)
	}
	if got, want := spy.args["fs.write"], fd+` "twelve bytes"`; got != want {
		t.Errorf("fs.write Log saw args %s, want %s", got, want)
	}
	if got := spy.results["fs.write"]; got != "12" {
		t.Errorf("fs.write Log saw results %s, want 12", got)
	}
}
