// Event-log byte identity between the dispatch engines: a primary running on
// the threaded tier must ship exactly the bytes a switch-engine primary ships
// — same records, same order, same encoding — because the backup (and any
// later recovery) interprets those bytes positionally against §4.2 branch
// counts. The capture gate at the repository root (TestDispatchDualModeGolden)
// compares standalone observables; this one compares the replication wire
// itself, re-encoded from the backup's log so framing and payloads are both
// covered.
//
// The fuzz corpus (small 1-20, medium 1-5) runs under all three replication
// modes; the six benchmarks run under ModeLock, and mtrt — the only one that
// reschedules threads, so the only one whose log carries Switch records and
// their checksums — under ModeSched as well.
package replication_test

import (
	"bytes"
	"fmt"
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

// runPairRecords runs a clean primary/backup pair with the given engine and
// returns the backup's logged record stream.
func runPairRecords(t *testing.T, prog *ftvm.Program, mode ftvm.Mode, d vm.Dispatch) []wire.Record {
	t.Helper()
	pEnd, bEnd := transport.Pipe(4096)
	primary, err := replication.NewPrimary(replication.PrimaryConfig{
		Mode:       mode,
		Endpoint:   pEnd,
		Policy:     vm.NewSeededPolicy(pairGoldenPolicySeed, 64, 512),
		FlushEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(vm.Config{
		Program:         prog,
		Env:             env.New(pairGoldenEnvSeed),
		Coordinator:     primary,
		MaxInstructions: 200_000_000,
		TrackProgress:   mode == ftvm.ModeSched,
		Dispatch:        d,
	})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := replication.NewBackup(replication.BackupConfig{Mode: mode, Endpoint: bEnd})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var outcome replication.ServeOutcome
	var serveErr error
	go func() {
		defer close(done)
		outcome, serveErr = backup.Serve()
	}()
	if err := machine.Run(); err != nil {
		t.Fatalf("%v/%v: primary run: %v", mode, d, err)
	}
	<-done
	if serveErr != nil {
		t.Fatalf("%v/%v: backup serve: %v", mode, d, serveErr)
	}
	if outcome != replication.OutcomePrimaryCompleted {
		t.Fatalf("%v/%v: outcome %v", mode, d, outcome)
	}
	return backup.Store().Records()
}

// runPairLogBytes is runPairRecords re-encoded to bytes.
func runPairLogBytes(t *testing.T, prog *ftvm.Program, mode ftvm.Mode, d vm.Dispatch) []byte {
	t.Helper()
	var buf wire.Buffer
	for _, r := range runPairRecords(t, prog, mode, d) {
		if err := buf.Append(r); err != nil {
			t.Fatalf("re-encode %s: %v", r.Type(), err)
		}
	}
	return buf.Bytes()
}

func requireSameLog(t *testing.T, prog *ftvm.Program, mode ftvm.Mode) {
	t.Helper()
	sw := runPairLogBytes(t, prog, mode, vm.DispatchSwitch)
	th := runPairLogBytes(t, prog, mode, vm.DispatchThreaded)
	if !bytes.Equal(sw, th) {
		i := 0
		for i < len(sw) && i < len(th) && sw[i] == th[i] {
			i++
		}
		t.Fatalf("event log diverged between engines: switch %d bytes, threaded %d bytes, first difference at offset %d",
			len(sw), len(th), i)
	}
}

func TestDispatchDualModeEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-mode event-log sweep is not -short")
	}
	modes := []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval}
	type fuzzCase struct {
		size fuzzgen.Size
		tag  string
		n    uint64
	}
	for _, fc := range []fuzzCase{{fuzzgen.SizeSmall, "small", 20}, {fuzzgen.SizeMedium, "medium", 5}} {
		for seed := uint64(1); seed <= fc.n; seed++ {
			src := fuzzgen.Generate(seed, fc.size).Render()
			name := fmt.Sprintf("fuzz/%s-%d", fc.tag, seed)
			prog, err := ftvm.CompileSource(name, src)
			if err != nil {
				t.Fatalf("compile %s: %v", name, err)
			}
			for _, mode := range modes {
				mode := mode
				t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
					requireSameLog(t, prog, mode)
				})
			}
		}
	}
	for _, name := range programs.Names() {
		name := name
		prog, err := programs.Compile(name, 1)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		t.Run(fmt.Sprintf("bench/%s/%v", name, ftvm.ModeLock), func(t *testing.T) {
			requireSameLog(t, prog, ftvm.ModeLock)
		})
		if name == "mtrt" {
			t.Run(fmt.Sprintf("bench/%s/%v", name, ftvm.ModeSched), func(t *testing.T) {
				requireSameLog(t, prog, ftvm.ModeSched)
			})
		}
	}
}
