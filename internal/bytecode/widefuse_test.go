package bytecode

// Fusion-set pin (wide tier): the wide opcode space — which idioms are fused,
// how many instructions each folds, and which end in a counted branch — is
// part of the replication contract surface (the threaded engine's fault and
// branch-count positions are derived from Width and Branch), so changes must
// be explicit diffs against this table, not silent fallout of an init() edit.
// The companion dynamic-frequency pin lives in pairfreq (TestFusionSetPinned);
// the DP segmentation behavior is pinned by TestWideFuseDP below.

import (
	"fmt"
	"strings"
	"testing"
)

// wideOpsPinned is the complete wide tier in allocation order:
// {name, folded width, ends-in-counted-branch}. When it drifts, the failing
// test prints the current table to pin.
var wideOpsPinned = []struct {
	name   string
	width  int32
	branch bool
}{
	{"w.lc", 2, false},
	{"w.ll", 2, false},
	{"w.gets.l", 2, false},
	{"w.l.gets", 2, false},
	{"w.st.l", 2, false},
	{"w.st.jmp", 2, true},
	{"w.gets.l.aload", 3, false},
	{"w.c.iadd", 2, false},
	{"w.c.isub", 2, false},
	{"w.c.imul", 2, false},
	{"w.c.idiv", 2, false},
	{"w.c.irem", 2, false},
	{"w.c.iand", 2, false},
	{"w.c.ior", 2, false},
	{"w.c.ixor", 2, false},
	{"w.c.ishl", 2, false},
	{"w.c.ishr", 2, false},
	{"w.c.icmp", 2, false},
	{"w.l.iadd", 2, false},
	{"w.l.isub", 2, false},
	{"w.l.imul", 2, false},
	{"w.l.idiv", 2, false},
	{"w.l.irem", 2, false},
	{"w.l.iand", 2, false},
	{"w.l.ior", 2, false},
	{"w.l.ixor", 2, false},
	{"w.l.ishl", 2, false},
	{"w.l.ishr", 2, false},
	{"w.l.icmp", 2, false},
	{"w.iadd.st", 2, false},
	{"w.isub.st", 2, false},
	{"w.imul.st", 2, false},
	{"w.iand.st", 2, false},
	{"w.ior.st", 2, false},
	{"w.ixor.st", 2, false},
	{"w.ishl.st", 2, false},
	{"w.ishr.st", 2, false},
	{"w.fadd.st", 2, false},
	{"w.fsub.st", 2, false},
	{"w.fmul.st", 2, false},
	{"w.fdiv.st", 2, false},
	{"w.lc.iadd", 3, false},
	{"w.lc.isub", 3, false},
	{"w.lc.imul", 3, false},
	{"w.lc.iand", 3, false},
	{"w.lc.ior", 3, false},
	{"w.lc.ixor", 3, false},
	{"w.lc.ishl", 3, false},
	{"w.lc.ishr", 3, false},
	{"w.ll.iadd", 3, false},
	{"w.ll.isub", 3, false},
	{"w.ll.imul", 3, false},
	{"w.ll.iand", 3, false},
	{"w.ll.ior", 3, false},
	{"w.ll.ixor", 3, false},
	{"w.ll.ishl", 3, false},
	{"w.ll.ishr", 3, false},
	{"w.ll.fadd", 3, false},
	{"w.ll.fsub", 3, false},
	{"w.ll.fmul", 3, false},
	{"w.ll.fdiv", 3, false},
	{"w.c.iadd.st", 3, false},
	{"w.c.isub.st", 3, false},
	{"w.c.imul.st", 3, false},
	{"w.c.iand.st", 3, false},
	{"w.c.ior.st", 3, false},
	{"w.c.ixor.st", 3, false},
	{"w.c.ishl.st", 3, false},
	{"w.c.ishr.st", 3, false},
	{"w.l.iadd.st", 3, false},
	{"w.l.isub.st", 3, false},
	{"w.l.imul.st", 3, false},
	{"w.l.iand.st", 3, false},
	{"w.l.ior.st", 3, false},
	{"w.l.ixor.st", 3, false},
	{"w.l.ishl.st", 3, false},
	{"w.l.ishr.st", 3, false},
	{"w.l.fadd.st", 3, false},
	{"w.l.fsub.st", 3, false},
	{"w.l.fmul.st", 3, false},
	{"w.l.fdiv.st", 3, false},
	{"w.lc.iadd.st", 4, false},
	{"w.lc.isub.st", 4, false},
	{"w.lc.imul.st", 4, false},
	{"w.lc.iand.st", 4, false},
	{"w.lc.ior.st", 4, false},
	{"w.lc.ixor.st", 4, false},
	{"w.lc.ishl.st", 4, false},
	{"w.lc.ishr.st", 4, false},
	{"w.ll.iadd.st", 4, false},
	{"w.ll.isub.st", 4, false},
	{"w.ll.imul.st", 4, false},
	{"w.ll.iand.st", 4, false},
	{"w.ll.ior.st", 4, false},
	{"w.ll.ixor.st", 4, false},
	{"w.ll.ishl.st", 4, false},
	{"w.ll.ishr.st", 4, false},
	{"w.ll.fadd.st", 4, false},
	{"w.ll.fsub.st", 4, false},
	{"w.ll.fmul.st", 4, false},
	{"w.ll.fdiv.st", 4, false},
	{"w.fadd.fadd", 2, false},
	{"w.fadd.fsub", 2, false},
	{"w.fadd.fmul", 2, false},
	{"w.fadd.fdiv", 2, false},
	{"w.fsub.fadd", 2, false},
	{"w.fsub.fsub", 2, false},
	{"w.fsub.fmul", 2, false},
	{"w.fsub.fdiv", 2, false},
	{"w.fmul.fadd", 2, false},
	{"w.fmul.fsub", 2, false},
	{"w.fmul.fmul", 2, false},
	{"w.fmul.fdiv", 2, false},
	{"w.fdiv.fadd", 2, false},
	{"w.fdiv.fsub", 2, false},
	{"w.fdiv.fmul", 2, false},
	{"w.fdiv.fdiv", 2, false},
	{"w.gets.l.aload.fadd", 4, false},
	{"w.gets.l.aload.fsub", 4, false},
	{"w.gets.l.aload.fmul", 4, false},
	{"w.gets.l.aload.fdiv", 4, false},
	{"w.l.gets.l.aload.fadd", 5, false},
	{"w.l.gets.l.aload.fsub", 5, false},
	{"w.l.gets.l.aload.fmul", 5, false},
	{"w.l.gets.l.aload.fdiv", 5, false},
	{"w.br.lt.z", 5, true},
	{"w.br.lt.nz", 5, true},
	{"w.br.ge.z", 7, true},
	{"w.br.ge.nz", 7, true},
	{"w.br.gt.z", 6, true},
	{"w.br.gt.nz", 6, true},
	{"w.br.le.z", 8, true},
	{"w.br.le.nz", 8, true},
	{"w.br.eq.z", 6, true},
	{"w.br.eq.nz", 6, true},
	{"w.br.ne.z", 4, true},
	{"w.br.ne.nz", 4, true},
	{"w.lt.v", 4, false},
	{"w.ge.v", 6, false},
	{"w.gt.v", 5, false},
	{"w.le.v", 7, false},
	{"w.eq.v", 5, false},
	{"w.ne.v", 3, false},
	{"w.lc.br.lt.z", 7, true},
	{"w.lc.br.lt.nz", 7, true},
	{"w.lc.br.ge.z", 9, true},
	{"w.lc.br.ge.nz", 9, true},
	{"w.lc.br.gt.z", 8, true},
	{"w.lc.br.gt.nz", 8, true},
	{"w.lc.br.le.z", 10, true},
	{"w.lc.br.le.nz", 10, true},
	{"w.lc.br.eq.z", 8, true},
	{"w.lc.br.eq.nz", 8, true},
	{"w.lc.br.ne.z", 6, true},
	{"w.lc.br.ne.nz", 6, true},
	{"w.ll.br.lt.z", 7, true},
	{"w.ll.br.lt.nz", 7, true},
	{"w.ll.br.ge.z", 9, true},
	{"w.ll.br.ge.nz", 9, true},
	{"w.ll.br.gt.z", 8, true},
	{"w.ll.br.gt.nz", 8, true},
	{"w.ll.br.le.z", 10, true},
	{"w.ll.br.le.nz", 10, true},
	{"w.ll.br.eq.z", 8, true},
	{"w.ll.br.eq.nz", 8, true},
	{"w.ll.br.ne.z", 6, true},
	{"w.ll.br.ne.nz", 6, true},
}

func TestWideOpsPinned(t *testing.T) {
	ops := WideOps()
	if len(ops) != len(wideOpsPinned) {
		t.Errorf("wide tier has %d opcodes, pin table has %d", len(ops), len(wideOpsPinned))
	}
	var table strings.Builder
	for i, op := range ops {
		wi, ok := WideOpInfo(op)
		if !ok {
			t.Fatalf("WideOps returned %d with no info", op)
		}
		fmt.Fprintf(&table, "\t{%q, %d, %v},\n", wi.Name, wi.Width, wi.Branch())
		if i >= len(wideOpsPinned) {
			continue
		}
		p := wideOpsPinned[i]
		if wi.Name != p.name || wi.Width != p.width || wi.Branch() != p.branch {
			t.Errorf("wide op %d drifted: got {%q, %d, %v}, pinned {%q, %d, %v}",
				i, wi.Name, wi.Width, wi.Branch(), p.name, p.width, p.branch)
		}
	}
	if t.Failed() {
		t.Logf("the current wide tier, to pin:\n%s", table.String())
	}
}

// wf builds an RInstr the way Predecode would for the ops widefuse inspects.
func wf(op Opcode, a int32, i int64) RInstr {
	return RInstr{Op: op, Branch: op.IsBranch(), A: a, I: i}
}

// TestWideFuseDP pins the segmentation behavior the doc comment promises:
// group selection is a dispatch-minimizing DP, not greedy longest-match, and
// every interior slot keeps an executable instruction for jump-ins.
func TestWideFuseDP(t *testing.T) {
	t.Run("declines pair that strands an epilogue", func(t *testing.T) {
		// iconst;icmp is fusable (w.c.icmp) and is the widest match at
		// slot 0 — but taking it strands the dup;imul;jz tail (4 dispatches).
		// The DP leaves the iconst bare so the whole relational idiom fuses
		// into one compare-branch group (2 dispatches).
		code := []RInstr{
			wf(OpIConst, 0, 5),
			wf(OpICmp, 0, 0),
			wf(OpDup, 0, 0),
			wf(OpIMul, 0, 0),
			wf(OpJz, 0, 0),
		}
		out, _ := widefuse(code, nil)
		if out[0].Op != OpIConst {
			t.Fatalf("slot 0: got %v, want bare iconst (greedy would take icmpC)", out[0].Op)
		}
		wi, ok := WideOpInfo(out[1].Op)
		if !ok || wi.Shape != WShapeCmpBr || wi.Rel != RelNe || wi.JmpNZ || wi.Width != 4 {
			t.Fatalf("slot 1: got %v (info %+v), want w.br.ne.z covering the idiom", out[1].Op, wi)
		}
		// Interior slots stay executable for jumps into the group.
		if out[2].Op != OpDup || out[3].Op != OpIMul || out[4].Op != OpJz {
			t.Fatalf("interior slots rewritten: %v %v %v", out[2].Op, out[3].Op, out[4].Op)
		}
	})
	t.Run("whole loop condition is one dispatch", func(t *testing.T) {
		// load; iconst; icmp; iconst 63; ishr; ineg; jz — the minilang
		// lowering of `if (a < k)` — fuses to a single w.lc.br.lt.z group.
		code := []RInstr{
			wf(OpLoad, 2, 0),
			wf(OpIConst, 0, 9),
			wf(OpICmp, 0, 0),
			wf(OpIConst, 0, 63),
			wf(OpIShr, 0, 0),
			wf(OpINeg, 0, 0),
			wf(OpJz, 1, 0),
		}
		out, _ := widefuse(code, nil)
		wi, ok := WideOpInfo(out[0].Op)
		if !ok || wi.Shape != WShapeLCCmpBr || wi.Rel != RelLt || wi.JmpNZ || wi.Width != 7 {
			t.Fatalf("slot 0: got %v (info %+v), want w.lc.br.lt.z width 7", out[0].Op, wi)
		}
		if out[0].A != 2 || out[0].I != 9 || out[0].B != 1 {
			t.Fatalf("slot 0 operands: %+v, want A=2 (slot) I=9 (const) B=1 (target)", out[0])
		}
	})
	t.Run("load-const-alu-store is one group", func(t *testing.T) {
		code := []RInstr{
			wf(OpLoad, 1, 0),
			wf(OpIConst, 0, 3),
			wf(OpIAdd, 0, 0),
			wf(OpStore, 4, 0),
		}
		out, _ := widefuse(code, nil)
		wi, ok := WideOpInfo(out[0].Op)
		if !ok || wi.Shape != WShapeLCAluSt || wi.ALU != OpIAdd || wi.Width != 4 {
			t.Fatalf("slot 0: got %v (info %+v), want w.lc.iadd.st", out[0].Op, wi)
		}
		if out[0].A != 1 || out[0].I != 3 || out[0].B != 4 {
			t.Fatalf("slot 0 operands: %+v, want A=1 I=3 B=4", out[0])
		}
	})
	t.Run("every slot holds a group valid at that entry", func(t *testing.T) {
		// Entering the lt idiom mid-way (e.g. a jump to the icmp) must see
		// the best group starting there: the bare compare-branch form.
		code := []RInstr{
			wf(OpLoad, 2, 0),
			wf(OpIConst, 0, 9),
			wf(OpICmp, 0, 0),
			wf(OpIConst, 0, 63),
			wf(OpIShr, 0, 0),
			wf(OpINeg, 0, 0),
			wf(OpJnz, 1, 0),
		}
		out, _ := widefuse(code, nil)
		wi, ok := WideOpInfo(out[2].Op)
		if !ok || wi.Shape != WShapeCmpBr || wi.Rel != RelLt || !wi.JmpNZ || wi.Width != 5 {
			t.Fatalf("slot 2: got %v (info %+v), want w.br.lt.nz width 5", out[2].Op, wi)
		}
	})
}
