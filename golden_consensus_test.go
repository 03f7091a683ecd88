package ftvm_test

// The consensus column of the golden sweep: every program pinned in
// testdata/exec_golden.json re-runs over the consensus-backed coordination
// path (Options.Backend = BackendConsensus), and its per-writer console
// streams must match the standalone capture frame for frame. The pinned file
// is only read here — the capture itself stays the property of
// TestExecGolden, so this column can never perturb it.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
)

func TestExecGoldenConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not -short")
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "exec_golden.json"))
	if err != nil {
		t.Fatalf("read golden (TestExecGolden -update creates it): %v", err)
	}
	want := make(map[string]*execCapture)
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	cases := goldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	modes := []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval}
	for i, name := range names {
		i, name := i, name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s missing from golden file (run TestExecGolden -update)", name)
			}
			// Each run gets its own virtual clock so elections and commit
			// waits cost no wall time; the VM work is the same CPU either way.
			res, runErr := clock.Drive(time.Minute, func(clk *clock.Virtual) (*ftvm.ReplicatedResult, error) {
				return ftvm.RunReplicated(cases[name], modes[i%len(modes)], ftvm.Options{
					EnvSeed:         20030622,
					PolicySeed:      1,
					MaxInstructions: 400_000_000,
					Backend:         ftvm.BackendConsensus,
					ConsensusSeed:   uint64(i) + 1,
					Clock:           clk,
				})
			})
			if runErr != nil {
				t.Fatalf("consensus-backed run: %v", runErr)
			}
			if res.Outcome != replication.OutcomePrimaryCompleted {
				t.Fatalf("outcome %v, want completed", res.Outcome)
			}
			if detail, ok := fuzzgen.CompareFrames(w.Console, res.Console); !ok {
				t.Errorf("consensus column diverged from pinned golden: %s", detail)
			}
			// Majority commit really happened: the leader awaited at least
			// the final halt commit.
			if res.Primary.AcksAwaited == 0 {
				t.Error("no output commits awaited — consensus backend bypassed?")
			}
		})
	}
}
