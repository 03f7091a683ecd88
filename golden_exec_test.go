package ftvm_test

// Golden execution test for the decode-once pipeline: the observable
// behaviour of the interpreter — console output, the Stats counters, and the
// §4.2 control-path checksums — is pinned to testdata. Console and Stats were
// captured from the pre-predecode interpreter and have never changed; the
// checksums were regenerated once, when the fold became per counted branch
// instead of per bytecode. Any resolved-IR rewrite must reproduce all three
// bit-for-bit; regenerate with `go test -run TestExecGolden -update` only
// when the observable semantics deliberately change.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/fuzzgen"
	"repro/internal/programs"
	"repro/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exec_golden.json from the current interpreter")

// execCapture is everything the golden test pins per program.
type execCapture struct {
	Console []string          `json:"console"`
	Stats   vm.Stats          `json:"stats"`
	Chks    map[string]uint64 `json:"chks"` // VTID -> final rolling control-path checksum
}

// captureRun executes prog standalone with progress tracking on and fixed
// seeds, returning the observables.
func captureRun(t *testing.T, prog *ftvm.Program) *execCapture {
	t.Helper()
	environ := env.New(20030622)
	machine, err := vm.New(vm.Config{
		Program:         prog,
		Env:             environ,
		Coordinator:     vm.NewDefaultCoordinator(vm.NewSeededPolicy(1, 1024, 8192)),
		MaxInstructions: 400_000_000,
		TrackProgress:   true,
	})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if err := machine.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	cap := &execCapture{
		Console: environ.Console().Lines(),
		Stats:   machine.Stats(),
		Chks:    make(map[string]uint64),
	}
	for _, th := range machine.Threads() {
		cap.Chks[th.VTID] = th.Progress.Chk
	}
	return cap
}

// goldenCases builds the program set: every internal/programs benchmark at
// scale 1 plus a deterministic slice of the fuzzgen corpus.
func goldenCases(t *testing.T) map[string]*ftvm.Program {
	t.Helper()
	cases := make(map[string]*ftvm.Program)
	for _, name := range programs.Names() {
		prog, err := programs.Compile(name, 1)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		cases["bench/"+name] = prog
	}
	for seed := uint64(1); seed <= 20; seed++ {
		src := fuzzgen.Generate(seed, fuzzgen.SizeSmall).Render()
		name := fmt.Sprintf("fuzz/small-%d", seed)
		prog, err := ftvm.CompileSource(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		cases[name] = prog
	}
	for seed := uint64(1); seed <= 5; seed++ {
		src := fuzzgen.Generate(seed, fuzzgen.SizeMedium).Render()
		name := fmt.Sprintf("fuzz/medium-%d", seed)
		prog, err := ftvm.CompileSource(name, src)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		cases[name] = prog
	}
	return cases
}

func TestExecGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is not -short")
	}
	path := filepath.Join("testdata", "exec_golden.json")
	cases := goldenCases(t)

	got := make(map[string]*execCapture, len(cases))
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got[name] = captureRun(t, cases[name])
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d programs)", path, len(got))
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := make(map[string]*execCapture)
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d programs, current run has %d", len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden file (run -update?)", name)
			continue
		}
		g := got[name]
		if !reflect.DeepEqual(g.Console, w.Console) {
			t.Errorf("%s: console output diverged\n got: %q\nwant: %q", name, g.Console, w.Console)
		}
		if g.Stats != w.Stats {
			t.Errorf("%s: stats diverged\n got: %+v\nwant: %+v", name, g.Stats, w.Stats)
		}
		if !reflect.DeepEqual(g.Chks, w.Chks) {
			t.Errorf("%s: progress checksums diverged\n got: %v\nwant: %v", name, g.Chks, w.Chks)
		}
	}
}
