package bytecode

import (
	"errors"
	"fmt"
)

// ErrPredecode wraps every load-time resolution failure.
var ErrPredecode = errors.New("predecode")

// RInstr is the resolved (decode-once) form of an instruction: constants are
// folded in from the pools, the branch property is baked into the instruction
// instead of being looked up per execution, and operand indices have been
// validated against the program, so the interpreter can execute it without
// consulting the pools, the opcode table, or bounds-checking operands it does
// not use.
//
// The serialized Program remains the portable representation; RInstr is a
// per-VM artifact produced by Predecode at load time and never crosses the
// wire, so replicas cannot disagree about it: it is a pure function of the
// Program both sides already share.
type RInstr struct {
	// Op is the opcode. OpLConst is rewritten to OpIConst with the pool
	// value folded into I, so the interpreter needs no OpLConst case.
	Op Opcode
	// Branch is Op.IsBranch(), resolved once at load time (§4.2: branches,
	// jumps, calls and returns increment br_cnt when executed).
	Branch bool
	// A and B carry the original operands where still needed (jump target,
	// local slot, pool/string index, method/class/static index, arg count).
	A, B int32
	// I holds a folded integer constant (OpIConst), or auxiliary resolved
	// data: the field count of the class for OpNew.
	I int64
	// F holds the folded float constant for OpFConst.
	F float64
}

// Pair superinstructions. These exist only in resolved code — the wide-fusion
// DP (widefuse.go) emits them into Resolved.Wide where no wider group fits;
// they are never serialized, assembled, or verified. Each one executes an
// operand-push (iconst with the constant in I, or load with the slot in A)
// and the following integer ALU op in a single dispatch, advancing the pc by
// two and counting two instructions. The slot of the second instruction keeps
// the original op, so jumps that land between the pair still execute
// correctly.
const (
	OpIAddC Opcode = OpHalt + 1 + iota
	OpISubC
	OpIMulC
	OpIDivC
	OpIRemC
	OpIAndC
	OpIOrC
	OpIXorC
	OpIShlC
	OpIShrC
	OpICmpC
	OpIAddL
	OpISubL
	OpIMulL
	OpIDivL
	OpIRemL
	OpIAndL
	OpIOrL
	OpIXorL
	OpIShlL
	OpIShrL
	OpICmpL
)

// fuseDelta maps a fusable integer ALU op to the distance between its
// const-variant fused opcode and OpIAddC; the local-variant sits fuseWidth
// further up.
var fuseDelta = map[Opcode]Opcode{
	OpIAdd: 0, OpISub: 1, OpIMul: 2, OpIDiv: 3, OpIRem: 4,
	OpIAnd: 5, OpIOr: 6, OpIXor: 7, OpIShl: 8, OpIShr: 9, OpICmp: 10,
}

const fuseWidth = 11 // C-variants per ALU op before the L-variants start

// Resolved is the decode-once form of a program: one resolved code slice per
// method, index-aligned with Program.Methods (nil for native stubs).
type Resolved struct {
	// Methods is the faithful one-op-per-bytecode form: the stream the
	// interpreter steps for everything that needs per-bytecode observation
	// (exact replay tails, near-budget tails, pair profiling).
	Methods [][]RInstr
	// Wide is the wide-fusion variant consumed by the threaded engine:
	// multi-instruction superinstruction groups chosen by DP segmentation
	// over the benchmark-derived pair/idiom table (widefuse.go). Index-
	// aligned per pc with Methods; interior slots keep executable content so
	// jumps into the middle of a group stay valid.
	Wide [][]RInstr
}

func predecodeErr(m *Method, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: %s+%d: %s", ErrPredecode, m.Name, pc, fmt.Sprintf(format, args...))
}

// Predecode resolves every method of p. It validates, once and for all, the
// operands the interpreter would otherwise have to trust on every execution:
// jump targets must land inside the method, pool and static indices must be
// in range, call/spawn targets must name existing methods, and spawn targets
// must be non-native. Opcodes the interpreter does not know are passed
// through untouched so they still fail at execution time, preserving the
// original runtime error surface.
func Predecode(p *Program) (*Resolved, error) {
	res := &Resolved{
		Methods: make([][]RInstr, len(p.Methods)),
		Wide:    make([][]RInstr, len(p.Methods)),
	}
	for mi, m := range p.Methods {
		if m.Native {
			continue
		}
		code := make([]RInstr, len(m.Code))
		for pc, in := range m.Code {
			r := RInstr{Op: in.Op, Branch: in.Op.IsBranch(), A: in.A, B: in.B}
			switch in.Op {
			case OpIConst:
				r.I = int64(in.A)
			case OpLConst:
				if int(in.A) < 0 || int(in.A) >= len(p.IntPool) {
					return nil, predecodeErr(m, pc, "lconst pool index %d of %d", in.A, len(p.IntPool))
				}
				r.Op = OpIConst
				r.I = p.IntPool[in.A]
			case OpFConst:
				if int(in.A) < 0 || int(in.A) >= len(p.FloatPool) {
					return nil, predecodeErr(m, pc, "fconst pool index %d of %d", in.A, len(p.FloatPool))
				}
				r.F = p.FloatPool[in.A]
			case OpSConst:
				if int(in.A) < 0 || int(in.A) >= len(p.StrPool) {
					return nil, predecodeErr(m, pc, "sconst pool index %d of %d", in.A, len(p.StrPool))
				}
			case OpJmp, OpJz, OpJnz:
				if int(in.A) < 0 || int(in.A) >= len(m.Code) {
					return nil, predecodeErr(m, pc, "jump target %d outside method of %d instructions", in.A, len(m.Code))
				}
			case OpCall, OpSpawn:
				if int(in.A) < 0 || int(in.A) >= len(p.Methods) {
					return nil, predecodeErr(m, pc, "%s target %d of %d methods", in.Op, in.A, len(p.Methods))
				}
				if in.Op == OpSpawn {
					callee := p.Methods[in.A]
					if callee.Native {
						return nil, predecodeErr(m, pc, "spawn of native method %s", callee.Name)
					}
					if int(in.B) != callee.NArgs {
						return nil, predecodeErr(m, pc, "spawn passes %d args, %s takes %d", in.B, callee.Name, callee.NArgs)
					}
				}
			case OpNew:
				if int(in.A) < 0 || int(in.A) >= len(p.Classes) {
					return nil, predecodeErr(m, pc, "new of class %d of %d", in.A, len(p.Classes))
				}
				cls := &p.Classes[in.A]
				// Fold the per-class allocation parameters so the
				// interpreter does not touch the class table.
				r.I = int64(len(cls.Fields))
				if cls.Finalizer >= 0 {
					r.B = 1
				} else {
					r.B = 0
				}
			case OpGetS, OpPutS:
				if int(in.A) < 0 || int(in.A) >= len(p.Statics) {
					return nil, predecodeErr(m, pc, "static slot %d of %d", in.A, len(p.Statics))
				}
			case OpLoad, OpStore:
				if int(in.A) < 0 || int(in.A) >= m.NLocals {
					return nil, predecodeErr(m, pc, "local slot %d of %d", in.A, m.NLocals)
				}
			case OpNewArr:
				if in.A != ElemInt && in.A != ElemFloat && in.A != ElemRef {
					return nil, predecodeErr(m, pc, "bad array element kind %d", in.A)
				}
			}
			code[pc] = r
		}
		res.Methods[mi] = code
		res.Wide[mi] = widefuse(code)
	}
	return res, nil
}
