package vm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
)

// Fault identity, per opcode, across the three columns (fused stream, step
// stream, oracle). The dual-mode goldens compare whole programs that end
// well; this table compares the ends that do not: for every opcode with a
// fault path, one minimal program per fault class, run in every column,
// tracked and untracked, requiring the same error text
// (thread and pc), the same Stats and the same per-thread br_cnt and
// control-path checksum. Rows that end cleanly ride along: the allocating
// cold ops on a tiny heap (the "end the block when NeedsGC flips" rule shows
// as identical GC and instruction counts) and the cold ops that cannot fault.

// faultRow is one program. ops are the opcodes the row exists for; a faulting
// row (want != "") names exactly one, and the test checks that the fault pc
// holds it. decls are assembler declarations before main; body is main's
// code, ';' standing for a newline.
type faultRow struct {
	class string
	ops   []bytecode.Opcode
	decls string
	body  string
	want  string // substring of the fatal error; "" = the run ends cleanly
	gc    int    // GCThreshold; rows that set it must collect at least once
	// group names a wide group that main's fused stream, walked from its
	// first slot, must execute: the row exists for that group's slow path.
	group string
}

func faultRows() []faultRow {
	op := func(o bytecode.Opcode) []bytecode.Opcode { return []bytecode.Opcode{o} }
	var rows []faultRow
	add := func(class string, o bytecode.Opcode, decls, body, want string) {
		rows = append(rows, faultRow{class: class, ops: op(o), decls: decls, body: body, want: want})
	}
	// in adds a row whose fault sits inside the wide group named group.
	in := func(group, class string, o bytecode.Opcode, decls, body, want string) {
		rows = append(rows, faultRow{class: class, ops: op(o), decls: decls, body: body, want: want, group: group})
	}

	// Integer ALU: a float under an int, reached as a plain op, inside the
	// iconst;alu and load;alu groups (the two-instruction "pairs") and inside
	// a wider group; div/rem by zero the same ways.
	for _, o := range []bytecode.Opcode{
		bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul, bytecode.OpIDiv, bytecode.OpIRem,
		bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor, bytecode.OpIShl, bytecode.OpIShr, bytecode.OpICmp,
	} {
		add("kind/plain", o, "", fmt.Sprintf("iconst 1; fconst 1.5; %s; pop; ret", o), "not an int")
		in("w.c."+o.String(), "kind/pairC", o, "", fmt.Sprintf("fconst 1.5; iconst 1; %s; pop; ret", o), "not an int")
		in("w.l."+o.String(), "kind/pairL", o, "", fmt.Sprintf("iconst 1; store 0; fconst 1.5; load 0; %s; pop; ret", o), "not an int")
		add("kind/wide", o, "", fmt.Sprintf("fconst 1.5; store 0; load 0; iconst 1; %s; store 1; ret", o), "not an int")
	}
	for _, o := range []bytecode.Opcode{bytecode.OpIDiv, bytecode.OpIRem} {
		add("divzero/plain", o, "", fmt.Sprintf("iconst 0; iconst 1; swap; %s; pop; ret", o), "division by zero")
		in("w.c."+o.String(), "divzero/pairC", o, "", fmt.Sprintf("iconst 1; iconst 0; %s; pop; ret", o), "division by zero")
		in("w.l."+o.String(), "divzero/pairL", o, "", fmt.Sprintf("iconst 0; store 0; iconst 1; load 0; %s; pop; ret", o), "division by zero")
	}
	add("kind", bytecode.OpINeg, "", "fconst 1.5; ineg; pop; ret", "not an int")
	add("kind", bytecode.OpI2F, "", "fconst 1.5; i2f; pop; ret", "not an int")
	for _, o := range []bytecode.Opcode{bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv, bytecode.OpFCmp} {
		add("kind", o, "", fmt.Sprintf("iconst 1; fconst 1.5; %s; pop; ret", o), "not a float")
	}
	// Float ALU inside the groups that fold it: an int operand of each.
	in("w.fadd.st", "kind/aluSt", bytecode.OpFAdd, "", "fconst 1.5; iconst 1; fadd; store 0; ret", "not a float")
	in("w.ll.fmul", "kind/ll", bytecode.OpFMul, "", "iconst 1; store 0; fconst 1.5; store 1; load 0; load 1; fmul; pop; ret", "not a float")
	in("w.l.fsub.st", "kind/lSt", bytecode.OpFSub, "", "iconst 2; store 0; fconst 1.5; load 0; fsub; store 1; ret", "not a float")
	in("w.ll.fdiv.st", "kind/llSt", bytecode.OpFDiv, "", "iconst 1; store 0; fconst 1.5; store 1; fconst 2.5; pop; load 1; load 0; fdiv; store 2; ret", "not a float")
	in("w.fdiv.fsub", "kind/first", bytecode.OpFDiv, "", "fconst 1.5; iconst 1; fconst 2.5; fdiv; fsub; pop; ret", "not a float")
	in("w.fmul.fadd", "kind/third", bytecode.OpFAdd, "", "iconst 1; fconst 1.5; fconst 2.5; fmul; fadd; pop; ret", "not a float")
	add("kind", bytecode.OpFNeg, "", "iconst 1; fneg; pop; ret", "not a float")
	add("kind", bytecode.OpF2I, "", "iconst 1; f2i; pop; ret", "not a float")
	add("kind", bytecode.OpF2S, "", "iconst 1; f2s; pop; ret", "not a float")
	add("kind", bytecode.OpI2S, "", "fconst 1.5; i2s; pop; ret", "not an int")
	add("kind", bytecode.OpChr, "", "fconst 1.5; chr; pop; ret", "not an int")
	add("kind", bytecode.OpJz, "", "fconst 1.5; jz out; out:; ret", "not an int")
	add("kind", bytecode.OpJnz, "", "fconst 1.5; jnz out; out:; ret", "not an int")
	add("kind", bytecode.OpRefEq, "", "iconst 1; null; refeq; pop; ret", "not a ref")

	// Strings: a non-ref and a null where a string is wanted; bounds.
	for _, o := range []bytecode.Opcode{bytecode.OpSLen, bytecode.OpS2I, bytecode.OpHashStr} {
		add("kind", o, "", fmt.Sprintf("iconst 1; %s; pop; ret", o), "not a ref")
		add("null", o, "", fmt.Sprintf("null; %s; pop; ret", o), "null reference")
	}
	for _, o := range []bytecode.Opcode{bytecode.OpSCmp, bytecode.OpSCat} {
		add("kind", o, "", fmt.Sprintf(`iconst 1; sconst "a"; %s; pop; ret`, o), "not a ref")
		add("null", o, "", fmt.Sprintf(`sconst "a"; null; %s; pop; ret`, o), "null reference")
	}
	add("kind", bytecode.OpSIdx, "", `sconst "abc"; fconst 1.5; sidx; pop; ret`, "not an int")
	add("null", bytecode.OpSIdx, "", "null; iconst 0; sidx; pop; ret", "null reference")
	add("bounds", bytecode.OpSIdx, "", `sconst "abc"; iconst 3; sidx; pop; ret`, "string index 3 of 3")
	add("kind", bytecode.OpSSub, "", `sconst "abc"; fconst 1.5; iconst 2; ssub; pop; ret`, "not an int")
	add("null", bytecode.OpSSub, "", "null; iconst 0; iconst 1; ssub; pop; ret", "null reference")
	add("bounds", bytecode.OpSSub, "", `sconst "abc"; iconst 2; iconst 4; ssub; pop; ret`, "substring [2,4) of 3")

	// Objects and arrays.
	add("kind", bytecode.OpGetF, "class C x\n", "iconst 1; getf C.x; pop; ret", "not a ref")
	add("null", bytecode.OpGetF, "class C x\n", "null; getf C.x; pop; ret", "null reference")
	add("kind", bytecode.OpPutF, "class C x\n", "iconst 1; iconst 2; putf C.x; ret", "not a ref")
	add("null", bytecode.OpPutF, "class C x\n", "null; iconst 2; putf C.x; ret", "null reference")
	add("kind", bytecode.OpNewArr, "", "fconst 1.5; newarr int; pop; ret", "not an int")
	add("bounds", bytecode.OpNewArr, "", "iconst 1; ineg; newarr ref; pop; ret", "negative array size")
	add("kind", bytecode.OpALoad, "", "iconst 2; newarr int; fconst 1.5; aload; pop; ret", "not an int")
	add("null", bytecode.OpALoad, "", "null; iconst 0; aload; pop; ret", "null reference")
	add("bounds", bytecode.OpALoad, "", "iconst 2; newarr int; iconst 2; aload; pop; ret", "out of bounds")
	add("kind", bytecode.OpAStore, "", "iconst 1; iconst 0; iconst 7; astore; ret", "not a ref")
	add("null", bytecode.OpAStore, "", "null; iconst 0; iconst 7; astore; ret", "null reference")
	add("bounds", bytecode.OpAStore, "", "iconst 2; newarr float; iconst 2; fconst 1.5; astore; ret", "out of bounds")
	add("kind", bytecode.OpALen, "", "iconst 1; alen; pop; ret", "not a ref")

	// Static array reads, gets;load;aload, alone and under a float op: a
	// null static, an index out of bounds or not an int, an int element under
	// the float op, and an int local lead of `x * arr[i]`.
	const arr = "static S.a\n"
	in("w.gets.l.aload", "null/static", bytecode.OpALoad, arr, "iconst 0; store 0; gets S.a; load 0; aload; pop; ret", "null reference")
	in("w.gets.l.aload", "bounds/static", bytecode.OpALoad, arr, "iconst 2; newarr float; puts S.a; iconst 2; store 0; gets S.a; load 0; aload; pop; ret", "out of bounds")
	in("w.gets.l.aload", "kind/static", bytecode.OpALoad, arr, "iconst 2; newarr float; puts S.a; fconst 1.5; store 0; gets S.a; load 0; aload; pop; ret", "not an int")
	in("w.gets.l.aload.fadd", "null/static.falu", bytecode.OpALoad, arr, "iconst 0; store 0; fconst 1.5; gets S.a; load 0; aload; fadd; pop; ret", "null reference")
	in("w.gets.l.aload.fmul", "intelem/static.falu", bytecode.OpFMul, arr, "iconst 2; newarr int; puts S.a; iconst 0; store 0; fconst 1.5; gets S.a; load 0; aload; fmul; pop; ret", "not a float")
	in("w.l.gets.l.aload.fsub", "bounds/l.static.falu", bytecode.OpALoad, arr, "iconst 5; store 0; fconst 1.5; store 1; iconst 2; newarr float; puts S.a; load 1; gets S.a; load 0; aload; fsub; pop; ret", "out of bounds")
	in("w.l.gets.l.aload.fmul", "intlead/l.static.falu", bytecode.OpFMul, arr, "iconst 0; store 0; iconst 3; store 1; iconst 2; newarr float; puts S.a; load 1; gets S.a; load 0; aload; fmul; pop; ret", "not a float")
	add("null", bytecode.OpALen, "", "null; alen; pop; ret", "null reference")

	// Monitors: a non-ref, a null, an object whose monitor the thread does
	// not own, and any monitor at all inside a finalizer.
	const finDecls = "class L d\nclass Res tag\nfinalizer Res fin\nnative gc sys.gc 0 void\nmethod w 0 void\n  ret\nend\n"
	const finMain = "new Res; pop; call gc; ret"
	for _, o := range []bytecode.Opcode{bytecode.OpMEnter, bytecode.OpMExit, bytecode.OpWait, bytecode.OpNotify, bytecode.OpNotifyAll} {
		add("kind", o, "", fmt.Sprintf("iconst 1; %s; ret", o), "not a ref")
		add("null", o, "", fmt.Sprintf("null; %s; ret", o), "null reference")
		if o != bytecode.OpMEnter {
			add("owner", o, "class L d\n", fmt.Sprintf("new L; %s; ret", o), "not owned")
		}
	}
	add("finalizer", bytecode.OpMEnter, finDecls+"method fin 1 void\n  load 0\n  menter\n  ret\nend\n", finMain, "finalizer used a monitor")

	// Threads.
	add("finalizer", bytecode.OpSpawn, finDecls+"method fin 1 void\n  spawn w 0\n  pop\n  ret\nend\n", finMain, "finalizer spawned a thread")
	add("kind", bytecode.OpJoin, "", "iconst 1; join; ret", "not a ref")
	add("null", bytecode.OpJoin, "", "null; join; ret", "join: ")
	add("notthread", bytecode.OpJoin, "class L d\n", "new L; join; ret", "join: ")
	add("kind", bytecode.OpAlive, "", "iconst 1; alive; pop; ret", "not a ref")
	add("null", bytecode.OpAlive, "", "null; alive; pop; ret", "alive: ")
	add("notthread", bytecode.OpAlive, "class L d\n", "new L; alive; pop; ret", "alive: ")

	// The allocating cold ops in a loop on a heap of eight objects: every few
	// iterations the allocation trips the threshold and ends the block.
	loop := func(alloc string) string {
		return "iconst 0; store 0; loop:; load 0; iconst 40; icmp; jz done; " + alloc +
			"; load 0; iconst 1; iadd; store 0; jmp loop; done:; ret"
	}
	for _, r := range []struct {
		o            bytecode.Opcode
		decls, alloc string
	}{
		{bytecode.OpSCat, "", `sconst "a"; sconst "b"; scat; pop`},
		{bytecode.OpSSub, "", `sconst "abcdef"; iconst 1; iconst 3; ssub; pop`},
		{bytecode.OpI2S, "", "load 0; i2s; pop"},
		{bytecode.OpF2S, "", "fconst 1.5; f2s; pop"},
		{bytecode.OpChr, "", "iconst 65; chr; pop"},
		{bytecode.OpNew, "class L d\n", "new L; pop"},
		{bytecode.OpNewArr, "", "iconst 3; newarr int; pop"},
		{bytecode.OpSpawn, "method w 0 void\n  ret\nend\n", "spawn w 0; pop"},
	} {
		rows = append(rows, faultRow{class: "gc", ops: op(r.o), decls: r.decls, body: loop(r.alloc), gc: 8})
	}

	// The cold ops with no fault path, and a wait/notify hand-off that
	// completes.
	// fmul;fadd is not contracted: at a = 1+2^-30, b = 1-2^-30, c = -1, the
	// rounded product is 1 and c + a*b is 0, where a fused multiply-add gives
	// -2^-60, takes the jnz and divides by zero.
	fp := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	rows = append(rows, faultRow{class: "nocontract", group: "w.fmul.fadd",
		ops: []bytecode.Opcode{bytecode.OpFMul, bytecode.OpFAdd},
		body: fmt.Sprintf("fconst -1; fconst %s; fconst %s; fmul; fadd; fconst 0; fcmp; jnz bad; ret; bad:; iconst 1; iconst 0; idiv; pop; ret",
			fp(1+math.Ldexp(1, -30)), fp(1-math.Ldexp(1, -30)))})
	rows = append(rows, faultRow{class: "clean",
		ops:   []bytecode.Opcode{bytecode.OpNop, bytecode.OpPop, bytecode.OpSwap, bytecode.OpPutS, bytecode.OpYield, bytecode.OpMarkDead, bytecode.OpHalt},
		decls: "static S.x\n",
		body:  "nop; iconst 1; iconst 2; swap; pop; puts S.x; yield; markdead; halt"})
	rows = append(rows, faultRow{class: "clean",
		ops: []bytecode.Opcode{bytecode.OpWait, bytecode.OpNotifyAll, bytecode.OpSpawn, bytecode.OpJoin, bytecode.OpAlive},
		decls: "static S.l\nstatic S.go\nclass L d\n" +
			"method w 0 void\n  gets S.l\n  menter\n  iconst 1\n  puts S.go\n  gets S.l\n  notifyall\n  gets S.l\n  mexit\n  ret\nend\n",
		body: "new L; puts S.l; iconst 0; puts S.go; gets S.l; menter; spawn w 0; store 0; " +
			"check:; gets S.go; jnz woke; gets S.l; wait; jmp check; woke:; gets S.l; mexit; " +
			"load 0; join; load 0; alive; pop; ret"})
	return rows
}

// runsGroup reports whether main's fused stream, walked from its first slot
// one group at a time, holds the wide group named name.
func runsGroup(t *testing.T, p *bytecode.Program, name string) bool {
	t.Helper()
	res, err := bytecode.Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	wide := res.Wide[p.Entry]
	for pc := 0; pc < len(wide); pc++ {
		if wi, ok := bytecode.WideOpInfo(wide[pc].Op); ok {
			if wi.Name == name {
				return true
			}
			pc += int(wi.Width) - 1
		}
	}
	return false
}

// faultOutcome is everything a row compares between the columns.
type faultOutcome struct {
	err     string
	stats   Stats
	threads string // per thread: vtid, br_cnt, control-path checksum
}

func runFaultRow(t *testing.T, p *bytecode.Program, r faultRow, e Engine, track bool) (faultOutcome, *VM, error) {
	t.Helper()
	v, err := New(Config{
		Program: p, Env: env.New(1),
		MaxInstructions: 100_000,
		GCThreshold:     r.gc,
		TrackProgress:   track,
		Dispatch:        e.D,
	})
	if err != nil {
		t.Fatalf("new vm (%v): %v", e, err)
	}
	runErr := e.run(v)
	o := faultOutcome{stats: v.Stats()}
	if runErr != nil {
		o.err = runErr.Error()
	}
	for _, th := range v.Threads() {
		o.threads += fmt.Sprintf("%s br=%d chk=%016x; ", th.VTID, th.BrCnt, th.Progress.Chk)
	}
	return o, v, runErr
}

func TestOpFaultIdentityAcrossEngines(t *testing.T) {
	faulted := map[bytecode.Opcode]bool{}
	covered := map[bytecode.Opcode]bool{}
	for _, r := range faultRows() {
		r := r
		t.Run(fmt.Sprintf("%s/%s", r.ops[0], r.class), func(t *testing.T) {
			src := r.decls + "method main 0 void\n  " + strings.ReplaceAll(r.body, "; ", "\n  ") + "\nend\n"
			p := buildProgram(t, src)
			if r.group != "" && !runsGroup(t, p, r.group) {
				t.Fatalf("main's fused stream does not run %s\n%s", r.group, src)
			}
			for _, track := range []bool{false, true} {
				sw, v, runErr := runFaultRow(t, p, r, OracleEngine, track)
				for _, e := range Engines {
					if got, _, _ := runFaultRow(t, p, r, e, track); got != sw {
						t.Fatalf("track=%v: %v diverged from the oracle\noracle: %+v\n   got: %+v\n%s", track, e, sw, got, src)
					}
				}
				if r.want == "" {
					if runErr != nil {
						t.Fatalf("track=%v: unexpected error %v\n%s", track, runErr, src)
					}
					if r.gc > 0 && sw.stats.GCs == 0 {
						t.Fatalf("track=%v: heap of %d never collected", track, r.gc)
					}
					continue
				}
				var fe *FatalError
				if !errors.As(runErr, &fe) || !strings.Contains(sw.err, r.want) {
					t.Fatalf("track=%v: err = %v, want a FatalError containing %q\n%s", track, runErr, r.want, src)
				}
				// The fault must sit on the opcode the row is for.
				top := v.ThreadByVTID(fe.TID).Top()
				if at := v.Program().Methods[top.Method].Code[fe.PC].Op; at != r.ops[0] {
					t.Fatalf("track=%v: fault at pc %d is on %s, row is for %s\n%s", track, fe.PC, at, r.ops[0], src)
				}
			}
		})
		for _, o := range r.ops {
			covered[o] = true
			if r.want != "" {
				faulted[o] = true
			}
		}
	}

	// No fault path in the interpreter: constants, moves, static and local
	// access, jumps, calls and returns (a native's own error is the
	// native's), the lifecycle marks; `new` fails only on an exhausted heap,
	// which no Config can arrange.
	noFault := map[bytecode.Opcode]bool{
		bytecode.OpNop: true, bytecode.OpIConst: true, bytecode.OpLConst: true, bytecode.OpFConst: true,
		bytecode.OpSConst: true, bytecode.OpNull: true, bytecode.OpPop: true, bytecode.OpDup: true,
		bytecode.OpSwap: true, bytecode.OpLoad: true, bytecode.OpStore: true, bytecode.OpJmp: true,
		bytecode.OpCall: true, bytecode.OpRet: true, bytecode.OpRetV: true, bytecode.OpNew: true,
		bytecode.OpGetS: true, bytecode.OpPutS: true, bytecode.OpYield: true, bytecode.OpMarkDead: true,
		bytecode.OpHalt: true,
	}
	for o := bytecode.OpNop; o <= bytecode.OpHalt; o++ {
		if !noFault[o] && !faulted[o] {
			t.Errorf("%s has a fault path and no faulting row", o)
		}
		if IsCold(o) && !covered[o] {
			t.Errorf("cold opcode %s has no row", o)
		}
	}
}
