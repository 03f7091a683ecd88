package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/bytecode"
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

// TestOpcodeHomes: every opcode has exactly one home — a case in the
// reference loop and a closure in the fast engine, or the cold table and its
// one body — so a new opcode that is missing from one side fails here, not
// with "unimplemented opcode" in the middle of a run.
func TestOpcodeHomes(t *testing.T) {
	sw := opCases(t, "interp.go", "runSlice")
	th := opCases(t, "threaded.go", "compileBase")
	cold := opCases(t, "cold.go", "execCold")
	base := map[string]bool{}
	for op := bytecode.OpNop; op <= bytecode.OpHalt; op++ {
		name := op.String()
		base[name] = true
		var want [3]bool // reference case, threaded closure, cold body
		switch {
		case op == bytecode.OpLConst:
			// Predecode rewrites it to iconst; no engine may see it.
		case IsCold(op):
			want = [3]bool{false, false, true}
		default:
			want = [3]bool{true, true, false}
		}
		if got := [3]bool{sw[name], th[name], cold[name]}; got != want {
			t.Errorf("%s: (runSlice case, compileBase closure, execCold body) = %v, want %v", name, got, want)
		}
	}
	for where, set := range map[string]map[string]bool{"runSlice": sw, "compileBase": th, "execCold": cold} {
		for name := range set {
			if !base[name] {
				t.Errorf("%s has a case for %s, which is not a base opcode", where, name)
			}
		}
	}
}
