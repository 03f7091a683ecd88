package replication

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/vm"
	"repro/internal/wire"
)

// edgeValuesProgram carries the payloads whose bits a value representation
// can lose — -0.0, NaN (0.0/0.0), ±Inf, MinInt64, MaxInt64 and a ref above
// 1<<16 — through every place a value lives: the operand stack, locals,
// statics, record fields, float and ref arrays, a bytecode call's arguments
// and return, and edge.echo, a non-deterministic native whose result the
// primary logs and a replay adopts. Each float is printed with 1/x, which
// tells -0.0 from +0.0; fcmp sees every pairing that has an edge case.
func edgeValuesProgram() string {
	var b strings.Builder
	b.WriteString(`
class Box v w
static Main.f
static Main.i
static Main.high
native print io.print 1 void
native echo edge.echo 1 value
method id 1 value
  load 0
  retv
end
method show 1 void
  load 0
  f2s
  sconst " 1/x="
  scat
  fconst 1.0
  load 0
  fdiv
  f2s
  scat
  call print
  ret
end
method showi 1 void
  load 0
  i2s
  sconst " x+1="
  scat
  load 0
  iconst 1
  iadd
  i2s
  scat
  call print
  ret
end
method cmp 2 void
  load 0
  load 1
  fcmp
  i2s
  call print
  ret
end
method main 0 void
  fconst 0.0
  fneg
  store 0
  fconst 0.0
  fconst 0.0
  fdiv
  store 1
  fconst 1.0
  fconst 0.0
  fdiv
  store 2
  fconst -1.0
  fconst 0.0
  fdiv
  store 3
  iconst -9223372036854775808
  store 4
  iconst 9223372036854775807
  store 5
  iconst 70000
  newarr ref
  store 8
  iconst 0
  store 7
fill:
  load 7
  iconst 70000
  icmp
  jz filled
  load 8
  load 7
  new Box
  astore
  load 7
  iconst 1
  iadd
  store 7
  jmp fill
filled:
  new Box
  dup
  iconst 42
  putf Box.v
  store 6
  iconst 1
  newarr float
  store 9
  new Box
  store 10
`)
	// Every float through every home: the stack, statics, a record field, a
	// float array, a bytecode call, the logged native.
	for slot := 0; slot < 4; slot++ {
		fmt.Fprintf(&b, `  load %[1]d
  call show
  load %[1]d
  puts Main.f
  gets Main.f
  call show
  load 10
  load %[1]d
  putf Box.v
  load 10
  getf Box.v
  call show
  load 9
  iconst 0
  load %[1]d
  astore
  load 9
  iconst 0
  aload
  call show
  load %[1]d
  call id
  call show
  load %[1]d
  call echo
  call show
`, slot)
		for other := 0; other < 4; other++ {
			fmt.Fprintf(&b, "  load %d\n  load %d\n  call cmp\n", slot, other)
		}
		fmt.Fprintf(&b, "  load %d\n  fconst 0.0\n  call cmp\n", slot)
	}
	for slot := 4; slot < 6; slot++ {
		fmt.Fprintf(&b, `  load %[1]d
  call showi
  load %[1]d
  puts Main.i
  gets Main.i
  call showi
  load 10
  load %[1]d
  putf Box.w
  load 10
  getf Box.w
  call showi
  load %[1]d
  call id
  call showi
  load %[1]d
  call echo
  call showi
`, slot)
	}
	// The high ref through a static, a field, a ref array and a call: each
	// copy is the same object, and its field reads back.
	b.WriteString(`  load 6
  puts Main.high
  load 10
  load 6
  putf Box.w
  load 8
  iconst 0
  load 6
  astore
  gets Main.high
  load 10
  getf Box.w
  refeq
  load 8
  iconst 0
  aload
  load 6
  call id
  refeq
  iadd
  i2s
  load 6
  getf Box.v
  i2s
  scat
  call print
  sconst "echo"
  call echo
  call print
  load 1
  puts Main.f
  load 4
  puts Main.i
  ret
end
`)
	return b.String()
}

// edgeRegistry is the standard library plus edge.echo.
func edgeRegistry(t *testing.T) *native.Registry {
	t.Helper()
	reg := native.StdLib()
	if err := reg.Register(&native.Def{
		Sig: "edge.echo", Arity: 1, Returns: 1, NonDeterministic: true,
		Fn: func(_ native.Ctx, args []heap.Value) ([]heap.Value, error) {
			return []heap.Value{args[0]}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// edgeValuesConsole is the program's console and edgeValuesState the head of
// its final vm.Inspect text (the rest lists the console), as computed by the
// interpreter when a value was four words (Kind, I, F, R side by side); every
// representation must reproduce them. A recovered machine holds one more heap
// object: the replayed echo of a string allocates its logged copy.
const edgeValuesConsole = `-0 1/x=-Inf
-0 1/x=-Inf
-0 1/x=-Inf
-0 1/x=-Inf
-0 1/x=-Inf
-0 1/x=-Inf
0
0
-1
1
0
NaN 1/x=NaN
NaN 1/x=NaN
NaN 1/x=NaN
NaN 1/x=NaN
NaN 1/x=NaN
NaN 1/x=NaN
0
0
0
0
0
+Inf 1/x=0
+Inf 1/x=0
+Inf 1/x=0
+Inf 1/x=0
+Inf 1/x=0
+Inf 1/x=0
1
0
0
1
1
-Inf 1/x=-0
-Inf 1/x=-0
-Inf 1/x=-0
-Inf 1/x=-0
-Inf 1/x=-0
-Inf 1/x=-0
-1
0
-1
0
-1
-9223372036854775808 x+1=-9223372036854775807
-9223372036854775808 x+1=-9223372036854775807
-9223372036854775808 x+1=-9223372036854775807
-9223372036854775808 x+1=-9223372036854775807
-9223372036854775808 x+1=-9223372036854775807
9223372036854775807 x+1=-9223372036854775808
9223372036854775807 x+1=-9223372036854775808
9223372036854775807 x+1=-9223372036854775808
9223372036854775807 x+1=-9223372036854775808
9223372036854775807 x+1=-9223372036854775808
242
echo`

const edgeValuesState = `position 140188 branches, 1 threads, halted=false
thread 0 slot=0 state=dead br=140188 mon=2 tasn=1 nat=63 out=56
monitor lid=1 lasn=1
statics=[NaN -9223372036854775808 rec/2]
heap live=%[1]d allocs=%[1]d frees=0 gcs=0
`

// TestEdgeValuesBitExact runs edgeValuesProgram at a primary, writes the log
// it shipped to an .ftlog image, reads that back and recovers from it; both
// machines must print, and end in, exactly the pinned state.
func TestEdgeValuesBitExact(t *testing.T) {
	prog, err := bytecode.AssembleString(edgeValuesProgram())
	if err != nil {
		t.Fatal(err)
	}
	reg := edgeRegistry(t)
	fb := &fakeBackend{}
	p, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	primaryEnv := env.New(1)
	pv, err := vm.New(vm.Config{Program: prog, Env: primaryEnv, Natives: reg, Coordinator: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := pv.Run(); err != nil {
		t.Fatalf("primary: %v", err)
	}
	var records []wire.Record
	for _, payload := range fb.ships {
		recs, err := wire.DecodeAll(payload)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, recs...)
	}
	img, err := EncodeLog(LogHeader{Mode: ModeLock, EnvSeed: 1}, prog, records)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := DecodeLog(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackup(BackupConfig{Mode: ModeLock, Natives: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadRecords(lg.Records); err != nil {
		t.Fatal(err)
	}
	backupEnv := env.New(1)
	bv, report, err := b.Recover(RecoverConfig{Program: lg.Prog, Env: backupEnv})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if report.FedResults != 7 {
		t.Errorf("replay adopted %d logged results, want the 7 echoes", report.FedResults)
	}
	for _, run := range []struct {
		name    string
		console []string
		inspect string
		live    int
	}{
		{"primary", primaryEnv.Console().Lines(), pv.Inspect().Text, 70167},
		{"recovered", backupEnv.Console().Lines(), bv.Inspect().Text, 70168},
	} {
		if got := strings.Join(run.console, "\n"); got != edgeValuesConsole {
			t.Errorf("%s console:\n%s\nwant:\n%s", run.name, got, edgeValuesConsole)
		}
		want := fmt.Sprintf(edgeValuesState, run.live)
		for _, line := range strings.Split(edgeValuesConsole, "\n") {
			want += fmt.Sprintf("console %q\n", line)
		}
		if run.inspect != want {
			t.Errorf("%s inspect:\n%s\nwant:\n%s", run.name, run.inspect, want)
		}
	}
}
