package bytecode

// Wide superinstruction fusion (the threaded engine's code tier).
//
// Resolved.Wide collapses multi-instruction idioms into single wide opcodes,
// chosen from the opcode-pair/idiom frequencies the six benchmark programs
// execute (`ftvm-bench -pairfreq`; see internal/bytecode/pairfreq). The
// shapes fall into four families:
//
//   - simple leads: two adjacent pushes/moves with no failure path
//     (load+iconst, load+load, gets+load, load+gets, store+load, store+jmp);
//   - ALU groups: an integer ALU op with its operand pushes and/or the
//     following store folded in (up to load+iconst+alu+store in one
//     dispatch). Only the eight total ALU ops participate (div/rem keep
//     their fault path un-fused);
//   - compare-branch idioms: the minilang compiler lowers every relational
//     operator to `icmp` plus a fixed arithmetic epilogue ending in jz/jnz.
//     Each (relation, branch-sense) combination becomes one opcode, with
//     optional load+iconst / load+load leads folded in, so a whole loop
//     condition is a single dispatch;
//   - compare-value idioms: the same epilogues without the trailing jump
//     (the relation's boolean pushed instead).
//
// Wide fusion is per-slot: every pc holds the best group *starting at that
// pc*, so jumping into the middle of a group lands on a valid instruction
// stream. Group selection is a right-to-left dynamic program minimizing
// dispatches along the fallthrough chain (greedy longest-match strands
// epilogue tails; see TestWideFuseDP).
//
// Hard rule: a wide group must be observationally identical to its unfused
// expansion — same stack/local effects, same branch-counter positions, same
// error values with the same completed-instruction counts. Shapes therefore
// never span allocating, blocking, or monitor instructions, and at most one
// faultable instruction (the first type check, or the single trailing
// conditional) appears per group.

// WideShape classifies a wide opcode's operand/stack behavior. The threaded
// compiler (internal/vm) switches on it to pick a specialized closure.
type WideShape uint8

const (
	WShapeNone    WideShape = iota
	WShapeLC                // load A;  iconst I                     w2
	WShapeLL                // load A;  load B                       w2
	WShapeGetsL             // gets A;  load B                       w2
	WShapeLGets             // load A;  gets B                       w2
	WShapeStL               // store A; load B                       w2
	WShapeStJmp             // store A; jmp B                        w2 (branch)
	WShapeAluSt             // alu;     store A                      w2
	WShapeLCAlu             // load A;  iconst I; alu                w3
	WShapeLLAlu             // load A;  load B;   alu                w3
	WShapeCAluSt            // iconst I; alu;     store A            w3
	WShapeLAluSt            // load B;  alu;      store A            w3
	WShapeLCAluSt           // load A;  iconst I; alu; store B       w4
	WShapeLLAluSt           // load A;  load B;   alu; store I       w4
	WShapeCmpBr             // icmp; <rel epilogue>; jz/jnz A        (branch)
	WShapeCmpV              // icmp; <rel epilogue>  (push the bool)
	WShapeLCCmpBr           // load A; iconst I; <cmp-br>; j* B      (branch)
	WShapeLLCmpBr           // load A; load B;   <cmp-br>; j* I      (branch)
)

// WideRel is the relation a compare idiom computes on cmpInt's -1/0/+1.
type WideRel uint8

const (
	RelNone WideRel = iota
	RelLt           // c < 0
	RelGe           // c >= 0
	RelGt           // c > 0
	RelLe           // c <= 0
	RelEq           // c == 0
	RelNe           // c != 0
)

func (r WideRel) String() string {
	switch r {
	case RelLt:
		return "lt"
	case RelGe:
		return "ge"
	case RelGt:
		return "gt"
	case RelLe:
		return "le"
	case RelEq:
		return "eq"
	case RelNe:
		return "ne"
	default:
		return "rel?"
	}
}

// WideInfo describes one wide opcode.
type WideInfo struct {
	Shape WideShape
	ALU   Opcode  // base ALU opcode for the ALU shapes (OpIAdd..OpIShr)
	Rel   WideRel // relation for the compare shapes
	JmpNZ bool    // branch sense for *CmpBr: true = trailing jnz, false = jz
	Width int32   // instructions folded into the group
	Name  string
}

// Branch reports whether the group ends in a branch-counted jump.
func (wi WideInfo) Branch() bool {
	switch wi.Shape {
	case WShapeStJmp, WShapeCmpBr, WShapeLCCmpBr, WShapeLLCmpBr:
		return true
	}
	return false
}

// wideALU is the ALU subset that participates in wide shapes, in opcode-
// allocation order. Div/rem are excluded: their divide-by-zero fault would be
// a second error point mid-group.
var wideALU = [...]Opcode{OpIAdd, OpISub, OpIMul, OpIAnd, OpIOr, OpIXor, OpIShl, OpIShr}

// wideRels is the relation allocation order; epilogue widths per the
// minilang lowering (arithmetic ops after the icmp, before any jump).
var wideRels = [...]struct {
	rel  WideRel
	tail int32
}{
	{RelLt, 3}, {RelGe, 5}, {RelGt, 4}, {RelLe, 6}, {RelEq, 4}, {RelNe, 2},
}

// The wide opcode space starts directly after the pair-fusion tier.
const wideBase = OpICmpL + 1

var (
	wideInfo  = map[Opcode]WideInfo{}
	wideNames = map[Opcode]string{}
	// Per-family opcode bases, in allocation order (see init).
	wLC, wLL, wGetsL, wLGets, wStL, wStJmp Opcode
	wAluSt, wLCAlu, wLLAlu, wCAluSt        Opcode
	wLAluSt, wLCAluSt, wLLAluSt            Opcode
	wCmpBr, wCmpV, wLCCmpBr, wLLCmpBr      Opcode
	wideEnd                                Opcode
)

func init() {
	next := wideBase
	alloc := func(wi WideInfo) Opcode {
		op := next
		next++
		wideInfo[op] = wi
		wideNames[op] = wi.Name
		return op
	}
	simple := func(shape WideShape, name string) Opcode {
		return alloc(WideInfo{Shape: shape, Width: 2, Name: name})
	}
	wLC = simple(WShapeLC, "w.lc")
	wLL = simple(WShapeLL, "w.ll")
	wGetsL = simple(WShapeGetsL, "w.gets.l")
	wLGets = simple(WShapeLGets, "w.l.gets")
	wStL = simple(WShapeStL, "w.st.l")
	wStJmp = simple(WShapeStJmp, "w.st.jmp")

	aluFam := func(shape WideShape, width int32, format func(alu string) string) Opcode {
		base := next
		for _, alu := range wideALU {
			alloc(WideInfo{Shape: shape, ALU: alu, Width: width, Name: format(opTable[alu].name)})
		}
		return base
	}
	wAluSt = aluFam(WShapeAluSt, 2, func(a string) string { return "w." + a + ".st" })
	wLCAlu = aluFam(WShapeLCAlu, 3, func(a string) string { return "w.lc." + a })
	wLLAlu = aluFam(WShapeLLAlu, 3, func(a string) string { return "w.ll." + a })
	wCAluSt = aluFam(WShapeCAluSt, 3, func(a string) string { return "w.c." + a + ".st" })
	wLAluSt = aluFam(WShapeLAluSt, 3, func(a string) string { return "w.l." + a + ".st" })
	wLCAluSt = aluFam(WShapeLCAluSt, 4, func(a string) string { return "w.lc." + a + ".st" })
	wLLAluSt = aluFam(WShapeLLAluSt, 4, func(a string) string { return "w.ll." + a + ".st" })

	cmpFam := func(shape WideShape, lead int32, prefix string) Opcode {
		base := next
		for _, r := range wideRels {
			// icmp + epilogue (+ trailing jump for the Br shapes).
			w := 1 + r.tail
			if shape == WShapeCmpV {
				alloc(WideInfo{Shape: shape, Rel: r.rel, Width: lead + w, Name: prefix + r.rel.String() + ".v"})
				continue
			}
			alloc(WideInfo{Shape: shape, Rel: r.rel, Width: lead + w + 1, Name: prefix + r.rel.String() + ".z"})
			alloc(WideInfo{Shape: shape, Rel: r.rel, JmpNZ: true, Width: lead + w + 1, Name: prefix + r.rel.String() + ".nz"})
		}
		return base
	}
	wCmpBr = cmpFam(WShapeCmpBr, 0, "w.br.")
	wCmpV = cmpFam(WShapeCmpV, 0, "w.")
	wLCCmpBr = cmpFam(WShapeLCCmpBr, 2, "w.lc.br.")
	wLLCmpBr = cmpFam(WShapeLLCmpBr, 2, "w.ll.br.")
	wideEnd = next
}

// WideOpInfo returns the descriptor of a wide opcode.
func WideOpInfo(op Opcode) (WideInfo, bool) {
	wi, ok := wideInfo[op]
	return wi, ok
}

// WideOps returns every wide opcode in allocation order.
func WideOps() []Opcode {
	out := make([]Opcode, 0, wideEnd-wideBase)
	for op := wideBase; op < wideEnd; op++ {
		out = append(out, op)
	}
	return out
}

// relOp returns the CmpBr/CmpV/LCCmpBr/LLCmpBr opcode for (family base, rel,
// sense). Br families allocate z/nz per relation; CmpV allocates one.
func relOp(base Opcode, rel WideRel, jnz bool, vform bool) Opcode {
	idx := Opcode(0)
	for i, r := range wideRels {
		if r.rel == rel {
			idx = Opcode(i)
			break
		}
	}
	if vform {
		return base + idx
	}
	op := base + idx*2
	if jnz {
		op++
	}
	return op
}

// wcand is one fusion candidate starting at a pc.
type wcand struct {
	in       RInstr
	width    int32
	terminal bool // ends in an unconditional transfer: no fallthrough cost
}

// matchEpilogue matches the arithmetic tail of a relational idiom at code[pc]
// == OpICmp. It appends a candidate stage for every prefix that is itself a
// complete relation (lt is a prefix of ge, gt of le, ne of eq), each as both
// the value form and — when a jz/jnz follows — the branch form. lead > 0
// folds a load+iconst / load+load prefix into the Br forms (LC/LL families).
func appendCmpCands(cands []wcand, code []RInstr, pc int, lead int32, leadIn RInstr) []wcand {
	n := len(code)
	op := func(i int) Opcode {
		if i >= n {
			return OpInvalid
		}
		return code[i].Op
	}
	isC := func(i int, v int64) bool { return i < n && code[i].Op == OpIConst && code[i].I == v }
	emit := func(rel WideRel, end int) []wcand {
		// Value form (no lead variants: only the bare CmpV family exists).
		if lead == 0 {
			vop := relOp(wCmpV, rel, false, true)
			cands = append(cands, wcand{in: RInstr{Op: vop}, width: wideInfo[vop].Width})
		}
		// Branch forms.
		if j := op(end); j == OpJz || j == OpJnz {
			var bop Opcode
			in := leadIn
			switch lead {
			case 0:
				bop = relOp(wCmpBr, rel, j == OpJnz, false)
				in = RInstr{A: code[end].A}
			case 2:
				if leadIn.Op == wLC {
					bop = relOp(wLCCmpBr, rel, j == OpJnz, false)
					in.B = code[end].A
				} else {
					bop = relOp(wLLCmpBr, rel, j == OpJnz, false)
					in.I = int64(code[end].A)
				}
			}
			in.Op = bop
			in.Branch = true
			cands = append(cands, wcand{in: in, width: wideInfo[bop].Width})
		}
		return cands
	}
	switch {
	case isC(pc+1, 63) && op(pc+2) == OpIShr && op(pc+3) == OpINeg:
		cands = emit(RelLt, pc+4)
		if isC(pc+4, 1) && op(pc+5) == OpIXor {
			cands = emit(RelGe, pc+6)
		}
	case isC(pc+1, 1) && op(pc+2) == OpIAdd && isC(pc+3, 1) && op(pc+4) == OpIShr:
		cands = emit(RelGt, pc+5)
		if isC(pc+5, 1) && op(pc+6) == OpIXor {
			cands = emit(RelLe, pc+7)
		}
	case op(pc+1) == OpDup && op(pc+2) == OpIMul:
		cands = emit(RelNe, pc+3)
		if isC(pc+3, 1) && op(pc+4) == OpIXor {
			cands = emit(RelEq, pc+5)
		}
	}
	return cands
}

// aluIdx returns the wideALU index of op, or -1.
func aluIdx(op Opcode) int32 {
	for i, a := range wideALU {
		if a == op {
			return int32(i)
		}
	}
	return -1
}

// wideCands returns every fusion candidate starting at pc: the base
// instruction (width 1), the pair tier, and all wide matches.
func wideCands(code []RInstr, pc int) []wcand {
	n := len(code)
	in0 := code[pc]
	op := func(i int) Opcode {
		if i >= n {
			return OpInvalid
		}
		return code[i].Op
	}
	baseTerminal := in0.Op == OpJmp || in0.Op == OpRet || in0.Op == OpRetV || in0.Op == OpHalt
	cands := []wcand{{in: in0, width: 1, terminal: baseTerminal}}

	// Pair tier: iconst/load + ALU (the OpI*C / OpI*L opcodes).
	if pc+1 < n {
		if d, ok := fuseDelta[code[pc+1].Op]; ok {
			switch in0.Op {
			case OpIConst:
				cands = append(cands, wcand{in: RInstr{Op: OpIAddC + d, I: in0.I}, width: 2})
			case OpLoad:
				cands = append(cands, wcand{in: RInstr{Op: OpIAddC + fuseWidth + d, A: in0.A}, width: 2})
			}
		}
	}

	switch in0.Op {
	case OpLoad:
		switch op(pc + 1) {
		case OpIConst:
			lead := RInstr{Op: wLC, A: in0.A, I: code[pc+1].I}
			cands = append(cands, wcand{in: lead, width: 2})
			if ai := aluIdx(op(pc + 2)); ai >= 0 {
				if op(pc+3) == OpStore {
					cands = append(cands, wcand{in: RInstr{Op: wLCAluSt + Opcode(ai), A: in0.A, I: code[pc+1].I, B: code[pc+3].A}, width: 4})
				}
				cands = append(cands, wcand{in: RInstr{Op: wLCAlu + Opcode(ai), A: in0.A, I: code[pc+1].I}, width: 3})
			}
			if op(pc+2) == OpICmp {
				cands = appendCmpCands(cands, code, pc+2, 2, lead)
			}
		case OpLoad:
			lead := RInstr{Op: wLL, A: in0.A, B: code[pc+1].A}
			cands = append(cands, wcand{in: lead, width: 2})
			if ai := aluIdx(op(pc + 2)); ai >= 0 {
				if op(pc+3) == OpStore {
					cands = append(cands, wcand{in: RInstr{Op: wLLAluSt + Opcode(ai), A: in0.A, B: code[pc+1].A, I: int64(code[pc+3].A)}, width: 4})
				}
				cands = append(cands, wcand{in: RInstr{Op: wLLAlu + Opcode(ai), A: in0.A, B: code[pc+1].A}, width: 3})
			}
			if op(pc+2) == OpICmp {
				cands = appendCmpCands(cands, code, pc+2, 2, lead)
			}
		case OpGetS:
			cands = append(cands, wcand{in: RInstr{Op: wLGets, A: in0.A, B: code[pc+1].A}, width: 2})
		default:
			if ai := aluIdx(op(pc + 1)); ai >= 0 && op(pc+2) == OpStore {
				cands = append(cands, wcand{in: RInstr{Op: wLAluSt + Opcode(ai), B: in0.A, A: code[pc+2].A}, width: 3})
			}
		}
	case OpIConst:
		if ai := aluIdx(op(pc + 1)); ai >= 0 && op(pc+2) == OpStore {
			cands = append(cands, wcand{in: RInstr{Op: wCAluSt + Opcode(ai), I: in0.I, A: code[pc+2].A}, width: 3})
		}
	case OpGetS:
		if op(pc+1) == OpLoad {
			cands = append(cands, wcand{in: RInstr{Op: wGetsL, A: in0.A, B: code[pc+1].A}, width: 2})
		}
	case OpStore:
		switch op(pc + 1) {
		case OpLoad:
			cands = append(cands, wcand{in: RInstr{Op: wStL, A: in0.A, B: code[pc+1].A}, width: 2})
		case OpJmp:
			cands = append(cands, wcand{in: RInstr{Op: wStJmp, A: in0.A, B: code[pc+1].A, Branch: true}, width: 2, terminal: true})
		}
	case OpICmp:
		cands = appendCmpCands(cands, code, pc, 0, RInstr{})
	default:
		if ai := aluIdx(in0.Op); ai >= 0 && op(pc+1) == OpStore {
			cands = append(cands, wcand{in: RInstr{Op: wAluSt + Opcode(ai), A: code[pc+1].A}, width: 2})
		}
	}
	return cands
}

// widefuse builds the wide superinstruction stream: per-slot best groups
// chosen by a right-to-left DP that minimizes dispatches along fallthrough.
// Every slot keeps a valid group for execution entering at that slot, so
// arbitrary jump targets remain correct.
func widefuse(code []RInstr) []RInstr {
	n := len(code)
	out := make([]RInstr, n)
	if n == 0 {
		return out
	}
	const inf = int32(1) << 30
	cost := make([]int32, n+1)
	for pc := n - 1; pc >= 0; pc-- {
		best := wcand{}
		bestCost := inf
		for _, c := range wideCands(code, pc) {
			cc := int32(1)
			if !c.terminal && int(c.width) < n-pc {
				cc += cost[pc+int(c.width)]
			}
			// Strictly-better, or equal-cost-but-wider (fewer re-entries
			// when execution falls into the tail).
			if cc < bestCost || (cc == bestCost && c.width > best.width) {
				best, bestCost = c, cc
			}
		}
		cost[pc] = bestCost
		out[pc] = best.in
	}
	return out
}
