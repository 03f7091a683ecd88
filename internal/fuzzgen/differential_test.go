// The differential quota over generated programs. The check itself lives in
// internal/simtest, which imports this package; an external test package may
// import it back.
package fuzzgen_test

import (
	"fmt"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/simtest"
)

// TestDifferentialSmoke is the CI quota: ≥200 generated programs checked
// across all five stages (standalone re-schedule, clean pair with full-log
// replay, pair kill or channel fault, clean consensus with committed-log
// replay, dispatch cross-check) with zero divergences. Sharded for
// parallelism.
func TestDifferentialSmoke(t *testing.T) {
	const shards = 8
	seeds := 240
	if !testing.Short() {
		seeds = 480
	}
	for sh := 0; sh < shards; sh++ {
		sh := sh
		t.Run(fmt.Sprintf("shard%d", sh), func(t *testing.T) {
			t.Parallel()
			cfg := &simtest.FuzzConfig{ArtifactDir: "testdata/artifacts"}
			for seed := sh; seed < seeds; seed += shards {
				p := fuzzgen.Generate(uint64(seed), fuzzgen.SizeSmall)
				if f := cfg.CheckProg(p, nil); f != nil {
					t.Fatalf("seed %d diverged:\n%s", seed, cfg.Report(p, f))
				}
			}
		})
	}
}

// TestDifferentialMediumLarge spot-checks the bigger size tiers (the soak
// binary's domain) without blowing up CI time.
func TestDifferentialMediumLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("medium/large tiers are covered by the soak binary; smoke uses small")
	}
	for _, size := range []fuzzgen.Size{fuzzgen.SizeMedium, fuzzgen.SizeLarge} {
		size := size
		t.Run(size.String(), func(t *testing.T) {
			t.Parallel()
			cfg := &simtest.FuzzConfig{ArtifactDir: "testdata/artifacts"}
			for seed := uint64(0); seed < 12; seed++ {
				p := fuzzgen.Generate(seed, size)
				if f := cfg.CheckProg(p, nil); f != nil {
					t.Fatalf("seed %d diverged:\n%s", seed, cfg.Report(p, f))
				}
			}
		})
	}
}
