// The pair logs of the identity table (internal/identity): a primary on the
// fused stream ships exactly the bytes a primary stepping the unfused stream
// ships, because the backup interprets them positionally against §4.2 branch
// counts. (internal/vm's TestThreeWayEventLog adds the oracle's column.)
package replication_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	ftvm "repro"
	"repro/internal/identity"
)

// TestDispatchDualModeEventLog: the generated programs run in every mode, the
// benchmarks in Lock mode, and mtrt, whose log carries Switch records, in
// Sched mode as well.
func TestDispatchDualModeEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-mode event-log sweep is not -short")
	}
	for _, p := range identity.Programs(t) {
		modes := identity.Modes
		if p.Name == "bench/mtrt" {
			modes = modes[:2]
		} else if strings.HasPrefix(p.Name, "bench/") {
			modes = modes[:1]
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%v", p.Name, mode), func(t *testing.T) {
				t.Parallel()
				_, fused := identity.PairLog(t, p.Prog, mode, identity.Fused)
				_, step := identity.PairLog(t, p.Prog, mode, identity.Step)
				identity.SameLog(t, "step", step, fused)
			})
		}
	}
}

// pairGolden pins, for generated small programs 1-4 in each mode, the record
// count and the FNV-1a hash of the fused pair log. The rows were captured at
// commit 40b73b1, before the pair backend was split out of the primary; the
// four ModeSched hashes were re-pinned when Switch.Chk became a per-branch
// fold (with Chk zeroed, the streams hashed identically before and after).
var pairGolden = []struct {
	prog    uint64
	mode    ftvm.Mode
	records int
	hash    uint64
}{
	{prog: 1, mode: ftvm.ModeLock, records: 17, hash: 0x61c9442839023282},
	{prog: 1, mode: ftvm.ModeSched, records: 9, hash: 0x7175c5b35100995e},
	{prog: 1, mode: ftvm.ModeLockInterval, records: 12, hash: 0xb272d0c22e626c25},
	{prog: 2, mode: ftvm.ModeLock, records: 27, hash: 0xb7a9af1d6ca3a5cc},
	{prog: 2, mode: ftvm.ModeSched, records: 17, hash: 0xeb0d1f327355ef04},
	{prog: 2, mode: ftvm.ModeLockInterval, records: 21, hash: 0xe32376094aeeec1c},
	{prog: 3, mode: ftvm.ModeLock, records: 18, hash: 0xb1fdd2ac2b186fa4},
	{prog: 3, mode: ftvm.ModeSched, records: 14, hash: 0x1c8c79e8a1d1816f},
	{prog: 3, mode: ftvm.ModeLockInterval, records: 16, hash: 0xb65bde0233bf9fa7},
	{prog: 4, mode: ftvm.ModeLock, records: 54, hash: 0x43032e876d33ce06},
	{prog: 4, mode: ftvm.ModeSched, records: 26, hash: 0xf172e57d93ab1a9e},
	{prog: 4, mode: ftvm.ModeLockInterval, records: 36, hash: 0x4fca5f29714765ff},
}

// TestPairBackendByteMatchesPreRefactorLogs pins the fused pair log of the
// first four generated small programs to pairGolden. A drifted row's error
// gives the count and hash to pin, should the drift be deliberate.
func TestPairBackendByteMatchesPreRefactorLogs(t *testing.T) {
	progs := map[string]*ftvm.Program{}
	for _, p := range identity.Programs(t) {
		progs[p.Name] = p.Prog
	}
	for _, g := range pairGolden {
		t.Run(fmt.Sprintf("seed%d-%v", g.prog, g.mode), func(t *testing.T) {
			recs, log := identity.PairLog(t, progs[fmt.Sprintf("fuzz/small-%d", g.prog)], g.mode, identity.Fused)
			h := fnv.New64a()
			h.Write(log)
			if len(recs) != g.records || h.Sum64() != g.hash {
				t.Errorf("fused log drifted from pairGolden: got %d records hash %#x, want %d records hash %#x",
					len(recs), h.Sum64(), g.records, g.hash)
			}
		})
	}
}
