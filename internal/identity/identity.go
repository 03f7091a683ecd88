// Package identity is the one table behind the identity gates. The backup
// replays the log by position — §4.2's br_cnt, pc_off and control-path
// checksum — so every way of running a program must yield the same bytes: the
// engine on its fused stream, the engine stepping the unfused stream, and the
// oracle (the reference loop in internal/vm/oracle_test.go). The gates sit in
// three test binaries, by what each links: internal/vm's runs the oracle's
// column, the root package's the product streams standalone and over the
// consensus log, internal/replication's their pair logs. They share this
// package's golden programs, golden file, capture and pair log; only tests
// import it.
package identity

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/env"
	"repro/internal/fuzzgen"
	"repro/internal/programs"
	"repro/internal/replication"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Fused and Step are the two product streams: the one place the gates pick
// them (internal/vm's edge sweeps use oracle_test.go's Engines).
const (
	Fused = vm.DispatchThreaded
	Step  = vm.DispatchSwitch
)

// Modes are the three replication modes, in the order the gates run them.
var Modes = []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval}

// Program is one golden program.
type Program struct {
	Name string
	Prog *ftvm.Program
}

// Programs compiles the 31 golden programs — the six benchmarks at scale 1
// and generated small 1-20 and medium 1-5 — sorted by name: the consensus
// gate draws each one's mode and election seed from its place in that order.
func Programs(t testing.TB) []Program {
	t.Helper()
	var out []Program
	add := func(name string, p *ftvm.Program, err error) {
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		out = append(out, Program{name, p})
	}
	for _, name := range programs.Names() {
		p, err := programs.Compile(name, 1)
		add("bench/"+name, p, err)
	}
	for _, tier := range []struct {
		size fuzzgen.Size
		tag  string
		n    uint64
	}{{fuzzgen.SizeSmall, "small", 20}, {fuzzgen.SizeMedium, "medium", 5}} {
		for seed := uint64(1); seed <= tier.n; seed++ {
			name := fmt.Sprintf("fuzz/%s-%d", tier.tag, seed)
			p, err := ftvm.CompileSource(name, fuzzgen.Generate(seed, tier.size).Render())
			add(name, p, err)
		}
	}
	if len(out) != 31 {
		t.Fatalf("%d golden programs, want 31", len(out))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Capture is what a standalone run pins.
type Capture struct {
	Console []string          `json:"console"`
	Stats   vm.Stats          `json:"stats"`
	Chks    map[string]uint64 `json:"chks"` // VTID -> final control-path checksum
}

// GoldenFile pins every golden program's fused tracked run. It sits beside
// this source file, so each test binary finds it from its own directory.
func GoldenFile() string {
	_, self, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(self), "testdata", "exec_golden.json")
}

// Golden reads GoldenFile, one capture per golden program.
func Golden(t testing.TB) map[string]*Capture {
	t.Helper()
	blob, err := os.ReadFile(GoldenFile())
	if err != nil {
		t.Fatalf("read golden (the root package's TestExecGolden -update creates it): %v", err)
	}
	golden := map[string]*Capture{}
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(golden) != 31 {
		t.Fatalf("golden file has %d programs, want 31", len(golden))
	}
	return golden
}

// Standalone runs prog alone on stream d under the golden seeds (env
// 20030622, policy 1 with quanta 1024-8192). Callers pass the pinned
// instruction count as the budget, so each run also shows that the budget
// admits the last instruction.
func Standalone(t testing.TB, prog *ftvm.Program, track bool, budget uint64, d vm.Dispatch) Capture {
	t.Helper()
	environ := env.New(20030622)
	machine, err := vm.New(vm.Config{
		Program:         prog,
		Env:             environ,
		Coordinator:     vm.NewDefaultCoordinator(vm.NewSeededPolicy(1, 1024, 8192)),
		MaxInstructions: budget,
		TrackProgress:   track,
		Dispatch:        d,
	})
	if err != nil {
		t.Fatalf("vm.New (%v): %v", d, err)
	}
	if err := machine.Run(); err != nil {
		t.Fatalf("run (%v): %v", d, err)
	}
	got := Capture{Console: environ.Console().Lines(), Stats: machine.Stats(), Chks: map[string]uint64{}}
	for _, th := range machine.Threads() {
		got.Chks[th.VTID] = th.Progress.Chk
	}
	return got
}

// PairEnvSeed is the environment a pair log is recorded (and replayed) in:
// the historical sweep convention, with policy seed 77.
const PairEnvSeed = 1234

// PairLog runs a clean cold pair over prog on stream d through the one
// cluster assembly (policy 77 with quanta 64-512, four records a frame) and
// returns the backup's log and its bytes, re-encoded.
func PairLog(t testing.TB, prog *ftvm.Program, mode ftvm.Mode, d vm.Dispatch) ([]wire.Record, []byte) {
	t.Helper()
	res, err := cluster.Run(cluster.Config{
		Primary: replication.PrimaryConfig{Mode: mode, Policy: vm.NewSeededPolicy(77, 64, 512), FlushEvery: 4},
		Recover: replication.RecoverConfig{Program: prog, Env: env.New(PairEnvSeed), MaxInstructions: 200_000_000, Dispatch: d},
	})
	if err != nil {
		t.Fatalf("%v/%v: %v", mode, d, err)
	}
	if res.Outcome != replication.OutcomePrimaryCompleted {
		t.Fatalf("%v/%v: outcome %v", mode, d, res.Outcome)
	}
	recs := res.Records()
	var buf wire.Buffer
	for _, r := range recs {
		if err := buf.Append(r); err != nil {
			t.Fatalf("re-encode %s: %v", r.Type(), err)
		}
	}
	return recs, buf.Bytes()
}

// SameLog reports where got, the named column's log, first differs from want.
func SameLog(t testing.TB, column string, got, want []byte) {
	t.Helper()
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	if at < len(got) || at < len(want) {
		t.Errorf("%s: event log diverged: %d bytes against %d, first difference at offset %d", column, len(got), len(want), at)
	}
}
