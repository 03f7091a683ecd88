package fuzzgen

import (
	"fmt"
	"sort"
	"strings"
)

// Render turns the IR into minilang source. Print lines are tagged with a
// per-thread stream prefix ("m" for main, "w<self>" for workers) so the
// harness can compare per-writer subsequences exactly even though the
// cross-thread interleaving is legally schedule-dependent.
func (p *Prog) Render() string {
	r := &renderer{p: p}
	var b strings.Builder
	fmt.Fprintf(&b, "// fuzzgen seed=%d size=%s\n", p.Seed, p.Size)
	b.WriteString("class Cell { n int; }\n")
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "var %s int = %s;\n", g.Name, lit(g.Init))
	}
	for i := 0; i < p.NLocks; i++ {
		fmt.Fprintf(&b, "var lk%d Cell;\n", i)
	}
	if p.Gate {
		b.WriteString("var gate Cell;\n")
	}
	if p.Slots {
		b.WriteString("var slots []int;\n")
	}
	b.WriteString("func mix(a int, b int) int { return a * 31 + b; }\n")

	used := make(map[int]bool)
	for _, wi := range p.Spawns {
		used[wi] = true
	}
	for wi, w := range p.Workers {
		if !used[wi] {
			continue
		}
		fmt.Fprintf(&b, "func %s(self int) {\n", w.Name)
		b.WriteString("\tvar junk int = 0;\n")
		b.WriteString("\tjunk = junk;\n")
		r.stream = `"w" + itoa(self) + "|`
		r.slotIndex = "self"
		r.stmts(&b, w.Body, 1)
		b.WriteString("}\n")
	}

	b.WriteString("func main() {\n")
	b.WriteString("\tvar junk int = 0;\n")
	b.WriteString("\tjunk = junk;\n")
	for i := 0; i < p.NLocks; i++ {
		fmt.Fprintf(&b, "\tlk%d = new Cell;\n", i)
	}
	if p.Gate {
		b.WriteString("\tgate = new Cell;\n")
	}
	if p.Slots {
		fmt.Fprintf(&b, "\tslots = new [%d]int;\n", len(p.Spawns)+1)
	}
	r.stream = `"m|`
	r.slotIndex = fmt.Sprintf("%d", len(p.Spawns))
	b.WriteString("\tprint(\"m|start\");\n")
	for si, wi := range p.Spawns {
		fmt.Fprintf(&b, "\tvar t%d thread = spawn %s(%d);\n", si, p.Workers[wi].Name, si)
	}
	r.stmts(&b, p.MainMid, 1)
	for si := range p.Spawns {
		fmt.Fprintf(&b, "\tjoin(t%d);\n", si)
	}
	r.stmts(&b, p.Epi, 1)
	b.WriteString("}\n")
	return b.String()
}

type renderer struct {
	p         *Prog
	stream    string // open-quoted stream prefix, e.g. `"m|`
	slotIndex string // this thread's owned slot index expression
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteByte('\t')
	}
}

func (r *renderer) stmts(b *strings.Builder, ss []Stmt, depth int) {
	for _, s := range ss {
		r.stmt(b, s, depth)
	}
}

func (r *renderer) stmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch st := s.(type) {
	case *DeclStmt:
		fmt.Fprintf(b, "var %s int = %s;\n", st.Name, renderExpr(st.E))
	case *AssignStmt:
		fmt.Fprintf(b, "%s = %s;\n", st.Name, renderExpr(st.E))
	case *ForStmt:
		fmt.Fprintf(b, "for (var %s int = 0; %s < %d; %s = %s + 1) {\n",
			st.Var, st.Var, st.N, st.Var, st.Var)
		r.stmts(b, st.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *IfStmt:
		fmt.Fprintf(b, "if (%s != 0) {\n", renderExpr(st.Cond))
		r.stmts(b, st.Then, depth+1)
		indent(b, depth)
		if st.Else != nil {
			b.WriteString("} else {\n")
			r.stmts(b, st.Else, depth+1)
			indent(b, depth)
		}
		b.WriteString("}\n")
	case *LockStmt:
		fmt.Fprintf(b, "lock (lk%d) {\n", st.Lock)
		r.stmts(b, st.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *UpdStmt:
		fmt.Fprintf(b, "%s = %s %s (%s);\n",
			st.Global.Name, st.Global.Name, st.Global.Op, renderExpr(st.E))
	case *PrintStmt:
		fmt.Fprintf(b, "print(%s%s=\" + itoa(%s));\n", r.stream, st.Key, renderExpr(st.E))
	case *MarkerStmt:
		fmt.Fprintf(b, "print(%s%s\");\n", r.stream, st.Text)
	case *PrintGlobalStmt:
		fmt.Fprintf(b, "print(%s%s=\" + itoa(%s));\n", r.stream, st.Global.Name, st.Global.Name)
	case *SlotWriteStmt:
		fmt.Fprintf(b, "slots[%s] = %s;\n", r.slotIndex, renderExpr(st.E))
	case *SlotDumpStmt:
		n := len(r.p.Spawns) + 1
		fmt.Fprintf(b, "for (var di int = 0; di < %d; di = di + 1) {\n", n)
		indent(b, depth+1)
		fmt.Fprintf(b, "print(%sslot\" + itoa(di) + \"=\" + itoa(slots[di]));\n", r.stream)
		indent(b, depth)
		b.WriteString("}\n")
	case *NativeStmt:
		switch st.Kind {
		case NativeRand:
			b.WriteString("junk = rand();\n")
		case NativeClock:
			b.WriteString("junk = junk ^ clock();\n")
		case NativeYield:
			b.WriteString("yield;\n")
		default:
			fmt.Fprintf(b, "locktouch(lk%d);\n", st.Lock)
		}
	case *BumpStmt:
		b.WriteString("lock (gate) { gate.n = gate.n + 1; notifyall(gate); }\n")
	case *AwaitStmt:
		fmt.Fprintf(b, "lock (gate) { while (gate.n < %d) { wait(gate); } }\n", len(r.p.Spawns))
	default:
		panic(fmt.Sprintf("fuzzgen: unknown statement %T", s))
	}
}

// lit renders an int literal; negatives go through (0 - n) because minilang
// literals are unsigned tokens and "- -" sequences would be ambiguous.
func lit(v int64) string {
	if v < 0 {
		return fmt.Sprintf("(0 - %d)", -v)
	}
	return fmt.Sprintf("%d", v)
}

func renderExpr(e Expr) string {
	switch ex := e.(type) {
	case *Lit:
		return lit(ex.V)
	case *VarExpr:
		return ex.Name
	case *BinExpr:
		return "(" + renderExpr(ex.X) + " " + ex.Op + " " + renderExpr(ex.Y) + ")"
	case *UnExpr:
		return "(" + ex.Op + renderExpr(ex.X) + ")"
	case *MixExpr:
		return "mix(" + renderExpr(ex.A) + ", " + renderExpr(ex.B) + ")"
	default:
		panic(fmt.Sprintf("fuzzgen: unknown expression %T", e))
	}
}

// frames splits console lines into per-writer streams using the generated
// "<stream>|<payload>" tags. Cross-writer interleaving is legally
// schedule-dependent; each writer's own subsequence is not.
func frames(lines []string) map[string][]string {
	out := make(map[string][]string)
	for _, ln := range lines {
		stream := "?"
		if i := strings.IndexByte(ln, '|'); i >= 0 {
			stream = ln[:i]
		}
		out[stream] = append(out[stream], ln)
	}
	return out
}

// CompareFrames reports the first per-writer frame difference between two
// consoles of a generated program ("" and true when they agree): the
// comparison every run of one is held to against its reference.
func CompareFrames(ref, got []string) (detail string, ok bool) {
	rf, gf := frames(ref), frames(got)
	var streams []string
	for s := range rf {
		streams = append(streams, s)
	}
	for s := range gf {
		if _, ok := rf[s]; !ok {
			streams = append(streams, s)
		}
	}
	sort.Strings(streams)
	for _, s := range streams {
		r, g := rf[s], gf[s]
		n := len(r)
		if len(g) < n {
			n = len(g)
		}
		for i := 0; i < n; i++ {
			if r[i] != g[i] {
				return fmt.Sprintf("stream %q frame %d: ref %q vs got %q", s, i, r[i], g[i]), false
			}
		}
		if len(r) != len(g) {
			return fmt.Sprintf("stream %q: ref has %d frames, got %d", s, len(r), len(g)), false
		}
	}
	return "", true
}
