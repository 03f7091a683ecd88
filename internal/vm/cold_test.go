package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
)

// opCases returns the mnemonics of the `case bytecode.OpX` labels of the
// `switch in.Op` statement in function fn of file (nested switches on other
// tags are not opcode homes).
func opCases(t *testing.T, file, fn string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			if tag, ok := sw.Tag.(*ast.SelectorExpr); !ok || tag.Sel.Name != "Op" {
				return true
			}
			for _, cc := range sw.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					sel, ok := e.(*ast.SelectorExpr)
					if !ok || !strings.HasPrefix(sel.Sel.Name, "Op") {
						t.Fatalf("%s: %s: case label that is not a bytecode.OpX", file, fn)
					}
					out[strings.ToLower(sel.Sel.Name[2:])] = true
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatalf("%s: no opcode switch found in %s", file, fn)
	}
	return out
}

// TestOpcodeHomes: every opcode has exactly one home in the product — a
// closure in compileBase, or the cold table and its one body in execCold —
// and exactly one way through the oracle: a case of its own in runSlice, or,
// for a cold opcode, the default case that runs the same execCold. A new
// opcode that is missing somewhere fails here, not with "unimplemented
// opcode" in the middle of a run.
func TestOpcodeHomes(t *testing.T) {
	oracle := opCases(t, "oracle_test.go", "runSlice")
	th := opCases(t, "threaded.go", "compileBase")
	cold := opCases(t, "cold.go", "execCold")
	base := map[string]bool{}
	for op := bytecode.OpNop; op <= bytecode.OpHalt; op++ {
		name := op.String()
		base[name] = true
		var want [3]bool // compileBase closure, execCold body, oracle case
		switch {
		case op == bytecode.OpLConst:
			// Predecode rewrites it to iconst; no stream holds it.
		case IsCold(op):
			want = [3]bool{false, true, false}
		default:
			want = [3]bool{true, false, true}
		}
		if got := [3]bool{th[name], cold[name], oracle[name]}; got != want {
			t.Errorf("%s: (compileBase closure, execCold body, oracle case) = %v, want %v", name, got, want)
		}
	}
	for where, set := range map[string]map[string]bool{"the oracle": oracle, "compileBase": th, "execCold": cold} {
		for name := range set {
			if !base[name] {
				t.Errorf("%s has a case for %s, which is not a base opcode", where, name)
			}
		}
	}
}

// TestCompileTablesTotal: threaded.go has three panics — aluFn's "not a wide
// ALU op", relFn's "no relation" and compileWide's "unhandled wide shape" —
// and each guards a table invariant, not an input: the opcodes a stream can
// hold are the base set, the pair tier and bytecode.WideOps(), all emitted by
// Predecode from a verified program and never read from an image. Compiling
// every one of them, and every relation, shows no verified program reaches a
// panic; a wide opcode added without its closure fails here, by name.
func TestCompileTablesTotal(t *testing.T) {
	v, err := New(Config{Program: buildProgram(t, "method main 0 void\n  ret\nend\n"), Env: env.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	compile := func(what string, f func() bool) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: compile panicked: %v", what, r)
			}
		}()
		if !f() {
			t.Errorf("%s: no closure", what)
		}
	}
	for _, op := range bytecode.WideOps() {
		wi, ok := bytecode.WideOpInfo(op)
		if !ok {
			t.Fatalf("wide opcode %d has no descriptor", op)
		}
		compile(wi.Name, func() bool { return v.compileOp(bytecode.RInstr{Op: op}, 0) != nil })
	}
	for op := bytecode.OpIAddC; op <= bytecode.OpICmpL; op++ {
		compile(op.String(), func() bool { return v.compileOp(bytecode.RInstr{Op: op}, 0) != nil })
	}
	for rel := bytecode.RelLt; rel <= bytecode.RelNe; rel++ {
		compile("rel "+rel.String(), func() bool { return relFn(rel) != nil })
	}
	// The base ops that reach aluFn directly (compileBase's shared ALU case).
	for _, op := range []bytecode.Opcode{
		bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul, bytecode.OpIAnd,
		bytecode.OpIOr, bytecode.OpIXor, bytecode.OpIShl, bytecode.OpIShr,
	} {
		compile(op.String(), func() bool { return v.compileOp(bytecode.RInstr{Op: op}, 0) != nil })
	}
}
