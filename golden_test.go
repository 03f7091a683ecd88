package ftvm_test

// The fused and step columns of the identity table (internal/identity),
// standalone and over the consensus log. Regenerate the golden file with
// `go test -run TestExecGolden -update .` only when the observable semantics
// deliberately change.

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/identity"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
)

var update = flag.Bool("update", false, "rewrite internal/identity/testdata/exec_golden.json from the fused tracked runs")

// TestExecGolden pins the fused stream, tracked: console, Stats and every
// thread's Chk equal the golden file.
func TestExecGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not -short")
	}
	progs := identity.Programs(t)
	if *update {
		fresh := map[string]*identity.Capture{}
		for _, p := range progs {
			got := identity.Standalone(t, p.Prog, true, 400_000_000, identity.Fused)
			fresh[p.Name] = &got
		}
		blob, err := json.MarshalIndent(fresh, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(identity.GoldenFile(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := identity.Golden(t)
	for _, p := range progs {
		want := golden[p.Name]
		if got := identity.Standalone(t, p.Prog, true, want.Stats.Instructions, identity.Fused); !reflect.DeepEqual(got, *want) {
			t.Errorf("%s: fused stream diverged from the golden file\n got: %+v\nwant: %+v", p.Name, got, *want)
		}
	}
}

// TestDispatchDualModeGolden pins the step stream, tracked, to the same file,
// so it equals the fused stream.
func TestDispatchDualModeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-mode golden sweep is not -short")
	}
	golden := identity.Golden(t)
	for _, p := range identity.Programs(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			want := golden[p.Name]
			if got := identity.Standalone(t, p.Prog, true, want.Stats.Instructions, identity.Step); !reflect.DeepEqual(got, *want) {
				t.Errorf("step stream diverged from the golden file\n got: %+v\nwant: %+v", got, *want)
			}
		})
	}
}

// TestExecGoldenConsensus runs each golden program over the 3-replica log on
// a virtual clock, with its mode and election seed drawn from its place in
// name order: every writer's frames equal the golden console.
func TestExecGoldenConsensus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not -short")
	}
	golden := identity.Golden(t)
	for i, p := range identity.Programs(t) {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			res, err := clock.Drive(time.Minute, func(clk *clock.Virtual) (*ftvm.ReplicatedResult, error) {
				return ftvm.RunReplicated(p.Prog, identity.Modes[i%len(identity.Modes)], ftvm.Options{
					EnvSeed:         20030622,
					PolicySeed:      1,
					MaxInstructions: 400_000_000,
					Dispatch:        identity.Fused,
					Backend:         ftvm.BackendConsensus,
					ConsensusSeed:   uint64(i) + 1,
					Clock:           clk,
				})
			})
			if err != nil {
				t.Fatalf("consensus-backed run: %v", err)
			}
			if res.Outcome != replication.OutcomePrimaryCompleted {
				t.Fatalf("outcome %v, want completed", res.Outcome)
			}
			if detail, ok := fuzzgen.CompareFrames(golden[p.Name].Console, res.Console); !ok {
				t.Errorf("diverged from the golden console: %s", detail)
			}
			// Majority commit happened: the leader awaited at least the
			// halt's commit.
			if res.Primary.AcksAwaited == 0 {
				t.Error("no output commits awaited: consensus backend bypassed?")
			}
		})
	}
}
