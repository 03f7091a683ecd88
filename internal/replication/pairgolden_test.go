// Byte-identity pin for the CoordinationBackend extraction: the pair backend
// (PR 8) was split out of the primary verbatim, and these tables assert that
// the record stream a backup logs — the frame log, re-encoded byte for byte —
// matches what the pre-refactor monolithic primary produced for the
// historical sweep seeds (env 1234 / policy 77, the convention shared with
// sweepseed_test.go). The hashes below were captured at commit 40b73b1,
// immediately before the backend split; any drift means the extraction
// changed what ships, not just how. The four ModeSched hashes were re-pinned
// when Switch.Chk was redefined as a per-branch fold: with Chk zeroed, the
// streams hashed identically before and after that change.
//
// The test lives in an external package so it can generate programs through
// internal/fuzzgen (which imports the root package) without an import cycle,
// while still driving replication.NewPrimary/NewBackup directly — the exact
// boundary the backend split cuts through.
package replication_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/fuzzgen"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Historical sweep seed convention (sweepseed_test.go).
const (
	pairGoldenEnvSeed    = 1234
	pairGoldenPolicySeed = 77
)

// pairGolden pins, for each (program seed, mode), the record count and the
// FNV-1a hash of the backup's logged record stream re-encoded through
// wire.Buffer. Captured pre-refactor; see the package comment.
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

// logDigest re-encodes records and returns (count, FNV-1a 64 of the bytes).
func logDigest(t *testing.T, records []wire.Record) (int, uint64) {
	t.Helper()
	var buf wire.Buffer
	for _, r := range records {
		if err := buf.Append(r); err != nil {
			t.Fatalf("re-encode %s: %v", r.Type(), err)
		}
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return len(records), h.Sum64()
}

// runPairToLog runs a clean primary/backup pair over an in-process pipe and
// returns the backup's logged records.
func runPairToLog(t *testing.T, progSeed uint64, mode ftvm.Mode) []wire.Record {
	t.Helper()
	src := fuzzgen.Generate(progSeed, fuzzgen.SizeSmall).Render()
	prog, err := ftvm.CompileSource(fmt.Sprintf("golden-%d", progSeed), src)
	if err != nil {
		t.Fatalf("compile seed %d: %v", progSeed, err)
	}
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
		MaxInstructions: 50_000_000,
		TrackProgress:   mode == ftvm.ModeSched,
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
		t.Fatalf("seed %d mode %v: primary run: %v", progSeed, mode, err)
	}
	<-done
	if serveErr != nil {
		t.Fatalf("seed %d mode %v: backup serve: %v", progSeed, mode, serveErr)
	}
	if outcome != replication.OutcomePrimaryCompleted {
		t.Fatalf("seed %d mode %v: outcome %v", progSeed, mode, outcome)
	}
	return backup.Store().Records()
}

// TestPairBackendByteMatchesPreRefactorLogs is the satellite pin: the
// extracted pair backend must ship a byte-identical record stream.
func TestPairBackendByteMatchesPreRefactorLogs(t *testing.T) {
	if os.Getenv("FTVM_GOLDEN_PRINT") != "" {
		for _, seed := range []uint64{1, 2, 3, 4} {
			for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval} {
				n, h := logDigest(t, runPairToLog(t, seed, mode))
				fmt.Printf("\t{prog: %d, mode: ftvm.%s, records: %d, hash: %#x},\n", seed, modeName(mode), n, h)
			}
		}
		return
	}
	if len(pairGolden) == 0 {
		t.Fatal("pairGolden table is empty: run with FTVM_GOLDEN_PRINT=1 and pin the output")
	}
	for _, g := range pairGolden {
		g := g
		t.Run(fmt.Sprintf("seed%d-%v", g.prog, g.mode), func(t *testing.T) {
			n, h := logDigest(t, runPairToLog(t, g.prog, g.mode))
			if n != g.records || h != g.hash {
				t.Fatalf("frame log drifted from pre-refactor capture: got %d records hash %#x, want %d records hash %#x",
					n, h, g.records, g.hash)
			}
		})
	}
}

func modeName(m ftvm.Mode) string {
	switch m {
	case ftvm.ModeLock:
		return "ModeLock"
	case ftvm.ModeSched:
		return "ModeSched"
	case ftvm.ModeLockInterval:
		return "ModeLockInterval"
	}
	return "?"
}
