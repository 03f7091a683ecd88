// Package pairfreq counts opcode-pair frequencies: how often instruction B
// immediately follows instruction A, either statically (adjacent slots in
// compiled method bodies) or dynamically (consecutive executed instructions,
// counted by the interpreter's step tier under vm.Config.PairCounter).
//
// The counts feed the superinstruction fusion table in package bytecode:
// `ftvm-bench -pairfreq` dumps the executed-pair ranking over the six
// benchmark programs, and the fusion-set pin test records the ranks that
// justified each fused pattern, so widening or shrinking fusion is always an
// explicit, data-backed diff (see widefuse.go and TestFusionSetPinned).
package pairfreq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytecode"
)

// nOps bounds the opcode space the counter tracks. Base opcodes only: fused
// superinstructions never appear in the streams being counted (static code is
// pre-fusion, and the dynamic hook steps the unfused stream).
const nOps = int(bytecode.OpHalt) + 1

// Counter accumulates pair counts. The zero value is ready to use. Not
// goroutine-safe: the VM interpreter is single-goroutine, and merging
// parallel runs is what Merge is for.
type Counter struct {
	counts [nOps][nOps]uint64
	total  uint64
}

// Add records one occurrence of b immediately following a. Opcodes outside
// the base ISA (fused superinstructions) are ignored so callers do not have
// to care which code variant they walked.
func (c *Counter) Add(a, b bytecode.Opcode) {
	if int(a) >= nOps || int(b) >= nOps {
		return
	}
	c.counts[a][b]++
	c.total++
}

// Total returns the number of pairs recorded.
func (c *Counter) Total() uint64 { return c.total }

// OpCount returns how often op was executed, read off the pair counts: an
// instruction is the first element of one pair and the second of another,
// except at the two ends of a scheduling slice, so the larger of the two sums
// loses neither end.
func (c *Counter) OpCount(op bytecode.Opcode) uint64 {
	if int(op) >= nOps {
		return 0
	}
	var first, second uint64
	for o := 0; o < nOps; o++ {
		first += c.counts[op][o]
		second += c.counts[o][op]
	}
	return max(first, second)
}

// Merge adds every count of other into c.
func (c *Counter) Merge(other *Counter) {
	for a := 0; a < nOps; a++ {
		for b := 0; b < nOps; b++ {
			c.counts[a][b] += other.counts[a][b]
		}
	}
	c.total += other.total
}

// AddProgram counts every statically adjacent opcode pair in p's method
// bodies (predecode-normalized: lconst counts as iconst, matching what the
// fusion matcher sees). Jump targets are not treated as pair breaks: fusion
// keeps interior slots executable, so a statically adjacent pair is fusable
// whether or not something jumps into its middle.
func (c *Counter) AddProgram(p *bytecode.Program) {
	for _, m := range p.Methods {
		if m.Native {
			continue
		}
		for i := 0; i+1 < len(m.Code); i++ {
			c.Add(normalize(m.Code[i].Op), normalize(m.Code[i+1].Op))
		}
	}
}

func normalize(op bytecode.Opcode) bytecode.Opcode {
	if op == bytecode.OpLConst {
		return bytecode.OpIConst
	}
	return op
}

// Pair is one (A, B) adjacency with its count.
type Pair struct {
	A, B bytecode.Opcode
	N    uint64
}

func (p Pair) String() string { return p.A.String() + ";" + p.B.String() }

// Top returns the k most frequent pairs, ties broken by opcode order so the
// ranking is deterministic. k <= 0 returns all non-zero pairs.
func (c *Counter) Top(k int) []Pair {
	var out []Pair
	for a := 0; a < nOps; a++ {
		for b := 0; b < nOps; b++ {
			if n := c.counts[a][b]; n > 0 {
				out = append(out, Pair{A: bytecode.Opcode(a), B: bytecode.Opcode(b), N: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Rank returns the 1-based rank of (a, b) in the full ranking, or 0 if the
// pair was never observed.
func (c *Counter) Rank(a, b bytecode.Opcode) int {
	for i, p := range c.Top(0) {
		if p.A == a && p.B == b {
			return i + 1
		}
	}
	return 0
}

// Table formats the top-k ranking as an aligned text table (the
// `ftvm-bench -pairfreq` dump).
func (c *Counter) Table(k int) string {
	top := c.Top(k)
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-18s %12s %7s\n", "rank", "pair", "count", "share")
	for i, p := range top {
		share := 0.0
		if c.total > 0 {
			share = float64(p.N) / float64(c.total) * 100
		}
		fmt.Fprintf(&b, "%-5d %-18s %12d %6.2f%%\n", i+1, p.String(), p.N, share)
	}
	return b.String()
}
