package simtest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fuzzgen"
)

// TestInjectedDivergence wires a deliberately broken comparison into the
// differential check (the failover stage's output is corrupted before
// comparison) and requires the full failure path to work: detection,
// greedy shrinking to a near-minimal program, and a repro artifact set on
// disk whose header carries the failing scenario's exact replay key.
func TestInjectedDivergence(t *testing.T) {
	dir := t.TempDir()
	cfg := &FuzzConfig{ArtifactDir: dir}
	cfg.tamper = func(stage string, lines []string) []string {
		if stage != StageFailover {
			return lines
		}
		out := append([]string(nil), lines...)
		for i, ln := range out {
			if ln == "m|end" {
				out[i] = "m|end-corrupted"
			}
		}
		return out
	}

	const seed = 11
	p := fuzzgen.Generate(seed, fuzzgen.SizeMedium)
	f := cfg.CheckProg(p, nil)
	if f == nil {
		t.Fatal("tampered harness reported agreement")
	}
	if f.Stage != StageFailover {
		t.Fatalf("failure stage = %q, want %q", f.Stage, StageFailover)
	}

	report := cfg.Report(p, f)
	if !strings.Contains(report, "repro written to") {
		t.Fatalf("report did not write an artifact:\n%s", report)
	}

	mini := filepath.Join(dir, fmt.Sprintf("seed%d-%s.mini", seed, StageFailover))
	src, err := os.ReadFile(mini)
	if err != nil {
		t.Fatalf("minimized repro: %v", err)
	}
	// The tamper only corrupts the "m|end" marker, so the shrinker must be
	// able to strip every thread and almost every statement while the
	// divergence persists: the minimized program is main-only and tiny.
	if strings.Contains(string(src), "spawn") {
		t.Fatalf("minimized repro still spawns threads:\n%s", src)
	}
	if n := strings.Count(string(src), "\n"); n > 20 {
		t.Fatalf("minimized repro is %d lines, want a near-minimal program:\n%s", n, src)
	}
	if !strings.Contains(string(src), "fuzzgen repro: seed 11") ||
		!strings.Contains(string(src), fmt.Sprintf("ftvm-sim -replay %q", Key(f.Outcome.Scenario))) {
		t.Fatalf("missing repro header or replay key %q:\n%s", Key(f.Outcome.Scenario), src)
	}
	for _, suffix := range []string{".ref.txt", ".got.txt"} {
		path := strings.TrimSuffix(mini, ".mini") + suffix
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("missing artifact %s: %v", path, err)
		}
	}
	got, _ := os.ReadFile(strings.TrimSuffix(mini, ".mini") + ".got.txt")
	if !strings.Contains(string(got), "m|end-corrupted") {
		t.Fatalf("diverging output not captured:\n%s", got)
	}
}

// TestShrinkPreservesStage: a candidate that fails at a different stage (or
// stops failing) must not be accepted as "smaller".
func TestShrinkPreservesStage(t *testing.T) {
	cfg := &FuzzConfig{}
	cfg.tamper = func(stage string, lines []string) []string {
		if stage != StageReplicated {
			return lines
		}
		return append(append([]string(nil), lines...), "m|ghost")
	}
	p := fuzzgen.Generate(3, fuzzgen.SizeSmall)
	f := cfg.CheckProg(p, nil)
	if f == nil {
		t.Fatal("tampered harness reported agreement")
	}
	sp, sf := cfg.Shrink(p, f, 60)
	if sf.Stage != f.Stage {
		t.Fatalf("shrunk failure stage = %q, want %q", sf.Stage, f.Stage)
	}
	if got := cfg.CheckProg(sp, []string{sf.Stage}); got == nil {
		t.Fatal("shrunk program no longer reproduces the failure")
	}
}

// TestFuzzKeysReplayExactly: a fuzz seed's three simulated stages are
// scenarios, so each one's key, parsed back and run alone the way `ftvm-sim
// -replay` runs it, gives the trace line the fuzzer's own run gave — verdict,
// record counts and simulated time — for the consensus stage too.
func TestFuzzKeysReplayExactly(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		p := fuzzgen.Generate(seed, fuzzgen.SizeSmall)
		refs := references{{seed, uint64(p.Size)}: newReference(p)}
		for _, stage := range []string{StageReplicated, StageFailover, StageConsensus} {
			sc := drawFuzz(seed, p.Size).scenarios[stage]
			want := refs.run(sc).TraceLine()
			back, err := ParseKey(Key(sc))
			if err != nil {
				t.Fatalf("seed %d %s: key %q does not parse: %v", seed, stage, Key(sc), err)
			}
			if got := Run(back).TraceLine(); got != want {
				t.Errorf("seed %d %s: replay differs from the fuzzer's run:\n  fuzz:   %s\n  replay: %s", seed, stage, want, got)
			}
		}
	}
}
