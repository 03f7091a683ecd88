// Fusion-set pin (dynamic tier): the superinstruction families exist because
// specific opcode adjacencies dominate the executed-pair profile of the six
// benchmark programs. This test re-derives that profile deterministically
// (harness.PairFreq, default seeds — the `ftvm-bench -pairfreq` dump) and
// pins both the top of the ranking and the rank that justifies each fused
// family, so the fusion set can only widen or shrink together with the data
// that motivates it. The static shape of the wide tier is pinned separately
// by TestWideOpsPinned in package bytecode. The same run backs the
// interpreter's hot/cold split: an opcode in vm's cold table must stay under
// coldShare of the executed instructions of every one of the six programs.
package pairfreq_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/bytecode/pairfreq"
	"repro/internal/harness"
	"repro/internal/programs"
	"repro/internal/vm"
)

// coldShare is the bar of vm's cold table (cold.go): an opcode may share one
// generic execution path only while it is under this fraction of the executed
// instructions of each benchmark program.
const coldShare = 0.005

// topPairsPinned is the head of the executed-pair ranking over all six
// benchmarks at scale 1 (default harness seeds). Regenerate with
// FTVM_GOLDEN_PRINT=1 go test -run TestFusionSetPinned ./internal/bytecode/pairfreq
var topPairsPinned = []string{
	"load;iconst", // wide lead w.lc (and the lc.* ALU / compare families)
	"gets;load",   // w.gets.l
	"jz;load",     // block entry: not fusable (branch boundary)
	"iconst;ishr", // pair tier ishrC
	"icmp;iconst", // compare epilogue interior
	"iconst;iadd", // pair tier iaddC
	"ishr;ineg",   // compare epilogue interior (lt/ge)
	"load;aload",  // not fused: aload keeps its bounds-fault path
	"iconst;icmp", // pair tier icmpC / compare lead
	"store;load",  // w.st.l
	"store;jmp",   // w.st.jmp
	"load;gets",   // w.l.gets
}

// familyRanks pins, per fused family, a representative adjacency and the
// deepest rank at which it may appear while still justifying the family.
var familyRanks = []struct {
	family  string
	a, b    bytecode.Opcode
	maxRank int
}{
	{"w.lc (load+const lead)", bytecode.OpLoad, bytecode.OpIConst, 1},
	{"w.gets.l", bytecode.OpGetS, bytecode.OpLoad, 4},
	{"w.st.l", bytecode.OpStore, bytecode.OpLoad, 12},
	{"w.st.jmp", bytecode.OpStore, bytecode.OpJmp, 12},
	{"w.l.gets", bytecode.OpLoad, bytecode.OpGetS, 12},
	{"w.ll (load+load lead)", bytecode.OpLoad, bytecode.OpLoad, 32},
	{"pair tier iaddC", bytecode.OpIConst, bytecode.OpIAdd, 8},
	{"pair tier icmpC / compare lead", bytecode.OpIConst, bytecode.OpICmp, 10},
	{"compare epilogue (icmp;dup for ne/eq)", bytecode.OpICmp, bytecode.OpDup, 20},
	{"w.*.st (alu+store tail)", bytecode.OpIAdd, bytecode.OpStore, 20},
}

func TestFusionSetPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pair-frequency profile is not -short")
	}
	perProg, _, err := harness.PairFreq(harness.Config{})
	if err != nil {
		t.Fatalf("PairFreq: %v", err)
	}
	dyn := &pairfreq.Counter{}
	for _, name := range programs.Names() {
		c := perProg[name]
		dyn.Merge(c)
		for op := bytecode.OpNop; op <= bytecode.OpHalt; op++ {
			if !vm.IsCold(op) {
				continue
			}
			if share := float64(c.OpCount(op)) / float64(c.Total()); share >= coldShare {
				t.Errorf("cold opcode %s is %.2f%% of %s's executed instructions (bar %.1f%%): give it a closure in compileBase",
					op, share*100, name, coldShare*100)
			}
		}
	}
	top := dyn.Top(len(topPairsPinned))
	if os.Getenv("FTVM_GOLDEN_PRINT") != "" {
		for _, p := range top {
			fmt.Printf("\t%q,\n", p.String())
		}
		return
	}
	for i, p := range top {
		if p.String() != topPairsPinned[i] {
			t.Errorf("executed-pair rank %d drifted: got %s, pinned %s", i+1, p.String(), topPairsPinned[i])
		}
	}
	for _, fr := range familyRanks {
		rank := dyn.Rank(fr.a, fr.b)
		if rank == 0 || rank > fr.maxRank {
			t.Errorf("%s: %s;%s ranks %d (0 = never executed), fusion justification pinned at <= %d",
				fr.family, fr.a, fr.b, rank, fr.maxRank)
		}
	}
}

// TestCounterBasics covers the counting surface the profiler and the pin
// above rely on: merge, rank determinism, and fused-opcode filtering.
func TestCounterBasics(t *testing.T) {
	var a, b pairfreq.Counter
	a.Add(bytecode.OpLoad, bytecode.OpIConst)
	a.Add(bytecode.OpLoad, bytecode.OpIConst)
	a.Add(bytecode.OpIConst, bytecode.OpIAdd)
	b.Add(bytecode.OpIConst, bytecode.OpIAdd)
	b.Add(bytecode.OpIAddC, bytecode.OpLoad) // fused opcode: must be ignored
	a.Merge(&b)
	if a.Total() != 4 {
		t.Fatalf("total %d, want 4 (fused-op pair dropped)", a.Total())
	}
	top := a.Top(0)
	if len(top) != 2 || top[0].String() != "iconst;iadd" || top[0].N != 2 ||
		top[1].String() != "load;iconst" || top[1].N != 2 {
		t.Fatalf("ranking %v, want iconst;iadd then load;iconst (count tie broken by opcode order)", top)
	}
	if got := a.Rank(bytecode.OpLoad, bytecode.OpIConst); got != 2 {
		t.Fatalf("Rank = %d, want 2", got)
	}
	if got := a.Rank(bytecode.OpJmp, bytecode.OpJmp); got != 0 {
		t.Fatalf("Rank of unseen pair = %d, want 0", got)
	}
}
