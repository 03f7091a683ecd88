// The three-way identity suite: the engine on its fused stream, the engine
// stepping the unfused stream (DispatchSwitch) and the oracle (the reference
// loop in oracle_test.go, which only this package's test binary can reach)
// must agree on everything a replica can observe. The in-package tests
// (epoch_edge_test.go, fault_identity_test.go) sweep the edges — budgets,
// quanta, exact targets, faults; this file runs whole programs: the golden
// set, the fuzzer's dispatch stage, and a replicated run per mode compared on
// the bytes of its event log. It is an external test package so it can import
// the packages that themselves import vm.
package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/fuzzgen"
	"repro/internal/programs"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// columns are the three ways to run a slice, the oracle first: the others are
// compared against it.
var columns = append([]vm.Engine{vm.OracleEngine}, vm.Engines...)

// goldenPrograms is the set testdata/exec_golden.json pins at the repository
// root: the six benchmarks at scale 1 and 25 generated programs.
func goldenPrograms(t *testing.T) (names []string, progs []*ftvm.Program) {
	t.Helper()
	add := func(name string, p *ftvm.Program, err error) {
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		names, progs = append(names, name), append(progs, p)
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
	return names, progs
}

type capture struct {
	Console []string
	Stats   vm.Stats
	Chks    map[string]uint64
}

func TestThreeWayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three-way golden sweep is not -short")
	}
	names, progs := goldenPrograms(t)
	if len(progs) != 31 {
		t.Fatalf("%d golden programs, want 31", len(progs))
	}
	for i, prog := range progs {
		for _, track := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/track=%v", names[i], track), func(t *testing.T) {
				var want capture
				for _, c := range columns {
					environ := env.New(20030622)
					machine, err := vm.New(vm.Config{
						Program:         prog,
						Env:             environ,
						Coordinator:     vm.NewDefaultCoordinator(vm.NewSeededPolicy(1, 1024, 8192)),
						MaxInstructions: 400_000_000,
						TrackProgress:   track,
						Dispatch:        c.D,
					})
					if err != nil {
						t.Fatalf("vm.New (%s): %v", c.Name, err)
					}
					c.In(func() { err = machine.Run() })
					if err != nil {
						t.Fatalf("run (%s): %v", c.Name, err)
					}
					got := capture{Console: environ.Console().Lines(), Stats: machine.Stats(), Chks: map[string]uint64{}}
					for _, th := range machine.Threads() {
						got.Chks[th.VTID] = th.Progress.Chk
					}
					if c.Oracle {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Errorf("%s diverged from the oracle\noracle: %+v\n   got: %+v", c.Name, want, got)
					}
				}
			})
		}
	}
}

// TestThreeWayFuzzDispatch runs the fuzzer's dispatch stage — DispatchSwitch
// against DispatchThreaded on one fresh schedule per seed, full console and
// Stats — over the fuzz-smoke seed range with DispatchSwitch pointed at the
// oracle. (internal/fuzzgen's own run of the stage compares the step stream
// with the fused one, which completes the triangle.)
func TestThreeWayFuzzDispatch(t *testing.T) {
	seeds := uint64(240)
	if testing.Short() {
		seeds = 40
	}
	cfg := &fuzzgen.Config{Size: fuzzgen.SizeSmall}
	vm.OracleEngine.In(func() {
		for seed := uint64(0); seed < seeds; seed++ {
			p := fuzzgen.Generate(seed, cfg.Size)
			if f := cfg.CheckProg(p, []string{fuzzgen.StageDispatch}); f != nil {
				t.Fatalf("seed %d: fused stream diverged from the oracle:\n%s", seed, cfg.Report(p, f))
			}
		}
	})
}

// pairLog runs a clean primary/backup pair over mtrt — the benchmark that
// reschedules threads, so the one whose log carries Switch records and their
// checksums as well as lock records — and returns the backup's log, re-encoded.
func pairLog(t *testing.T, prog *ftvm.Program, mode ftvm.Mode, c vm.Engine) []byte {
	t.Helper()
	pEnd, bEnd := transport.Pipe(4096)
	primary, err := replication.NewPrimary(replication.PrimaryConfig{
		Mode: mode, Endpoint: pEnd, Policy: vm.NewSeededPolicy(42, 64, 512), FlushEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(vm.Config{
		Program: prog, Env: env.New(1234), Coordinator: primary,
		MaxInstructions: 200_000_000, TrackProgress: mode == ftvm.ModeSched, Dispatch: c.D,
	})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := replication.NewBackup(replication.BackupConfig{Mode: mode, Endpoint: bEnd})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := backup.Serve()
		done <- err
	}()
	c.In(func() { err = machine.Run() })
	if err != nil {
		t.Fatalf("%v/%s: primary run: %v", mode, c.Name, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("%v/%s: backup serve: %v", mode, c.Name, err)
	}
	var buf wire.Buffer
	for _, r := range backup.Store().Records() {
		if err := buf.Append(r); err != nil {
			t.Fatalf("re-encode %s: %v", r.Type(), err)
		}
	}
	return buf.Bytes()
}

func TestThreeWayEventLog(t *testing.T) {
	prog, err := programs.Compile("mtrt", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			var want []byte
			for _, c := range columns {
				got := pairLog(t, prog, mode, c)
				if c.Oracle {
					want = got
					if len(want) == 0 {
						t.Fatal("empty event log")
					}
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s: event log diverged from the oracle's: %d bytes against %d", c.Name, len(got), len(want))
				}
			}
		})
	}
}
