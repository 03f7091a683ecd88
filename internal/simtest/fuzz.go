package simtest

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	ftvm "repro"
	"repro/internal/fuzzgen"
	frand "repro/internal/fuzzgen/rand"
	"repro/internal/transport"
)

// The differential fuzzer's check: one generated program run five ways, each
// held against the reference every kind is held against (newReference). Two
// stages are pure VM checks. The other three are scenarios of this package's
// kinds, drawn from the program's seed and judged as a sweep judges them, so
// a failure there is the scenario's exact replay key.
const (
	StageStandalone = "standalone" // re-run alone under the recovery schedule
	StageReplicated = "replicated" // a clean pair, its whole log replayed
	StageFailover   = "failover"   // a pair with a kill or a channel fault
	StageConsensus  = "consensus"  // a clean consensus run, its committed log replayed
	StageDispatch   = "dispatch"   // step vs fused stream: byte-identical console and stats
)

// allStages returns the five stages in check order.
func allStages() []string {
	return []string{StageStandalone, StageReplicated, StageFailover, StageConsensus, StageDispatch}
}

// FuzzConfig drives the differential check.
type FuzzConfig struct {
	// ArtifactDir, when non-empty, receives minimized repro artifacts for
	// every failure Report shrinks (see writeArtifact).
	ArtifactDir string

	// tamper, when set, rewrites a stage's observed output before
	// comparison. It exists so tests can inject a divergence and watch the
	// shrinker and artifact writer do their jobs.
	tamper func(stage string, lines []string) []string
}

// FuzzFailure is one stage's failed verdict on one generated program.
type FuzzFailure struct {
	Seed  uint64
	Size  fuzzgen.Size
	Stage string
	// Outcome is the verdict. Err != nil means the stage failed to run
	// (compile error, VM error, broken replication contract); otherwise it
	// ran, and Detail says how Console diverged from Ref or which invariant
	// broke. A simulated stage's Outcome is its scenario's own; the two VM
	// stages leave Scenario nil.
	Outcome *Outcome
	Source  string // program source at detection time
}

// Error implements error.
func (f *FuzzFailure) Error() string {
	if f.Outcome.Err != nil {
		return fmt.Sprintf("seed %d stage %s: %v", f.Seed, f.Stage, f.Outcome.Err)
	}
	return fmt.Sprintf("seed %d stage %s: output divergence: %s", f.Seed, f.Stage, f.Outcome.Detail)
}

// ReplayCommand renders the shell command that reruns the failure alone: the
// exact scenario for a simulated stage, the one seed and stage otherwise.
// Either reruns the program the seed generates, not a shrunken one.
func (f *FuzzFailure) ReplayCommand() string {
	if f.Outcome.Scenario != nil {
		return f.Outcome.ReplayCommand()
	}
	return fmt.Sprintf("go run ./cmd/ftvm-fuzz -seeds 1 -start %d -size %s -mode %s", f.Seed, f.Size, f.Stage)
}

// fuzzFaults are the channel faults a failover stage draws from.
var fuzzFaults = []transport.FaultKind{
	transport.FaultDropSend, transport.FaultDelaySend, transport.FaultDuplicateSend,
	transport.FaultPartialSend, transport.FaultCloseAtSend, transport.FaultCloseAtRecv,
	transport.FaultPartitionSend, transport.FaultPartitionRecv,
}

// fuzzDraws is what a seed draws beyond deriveSeeds: the three simulated
// stages' scenarios, and the dispatch stage's schedule.
type fuzzDraws struct {
	scenarios        map[string]Scenario
	dispSeed         int64
	dispQlo, dispQhi uint64
}

// drawFuzz draws them from the seed alone, never from the program's content,
// so a shrunken candidate replays the identical scenarios. A kill lands on
// one of frame sends 1..20, the pair sweep's default kill range (a small
// program may send fewer; then the kill never fires). The links never
// reorder (reorder=0/0): a frame that overtakes another is a channel fault
// the pair fails over on, and the clean stages must stay clean.
func drawFuzz(seed uint64, size fuzzgen.Size) fuzzDraws {
	drv := frand.New(seed ^ 0xD1F5C0DE)
	base := ProgCombo{ProgSeed: seed, Size: size, Mode: allModes[drv.Intn(len(allModes))],
		NetSeed: int64(drv.Range(1, 1000))}
	failover := &Combo{ProgCombo: base}
	if drv.Chance(1, 3) {
		failover.FaultKind, failover.FaultAt = fuzzFaults[drv.Intn(len(fuzzFaults))], drv.Range(1, 30)
	} else {
		failover.KillAtSend, failover.KillDeliver = drv.Range(1, 20), drv.Bool()
	}
	d := fuzzDraws{scenarios: map[string]Scenario{
		StageReplicated: &Combo{ProgCombo: base},
		StageFailover:   failover,
		StageConsensus:  &ConsensusCombo{ProgCombo: base, ESeed: uint64(drv.Range(1, 1000))},
	}}
	d.dispSeed = int64(drv.Next()>>2) | 1
	d.dispQlo = uint64(drv.Range(32, 127))
	d.dispQhi = d.dispQlo + uint64(drv.Range(64, 1087))
	return d
}

// CheckProg runs the differential check on an explicit program IR (the
// shrinker re-checks candidates through this).
func (c *FuzzConfig) CheckProg(p *fuzzgen.Prog, stages []string) *FuzzFailure {
	if stages == nil {
		stages = allStages()
	}
	fail := func(stage string, out *Outcome) *FuzzFailure {
		return &FuzzFailure{Seed: p.Seed, Size: p.Size, Stage: stage, Outcome: out, Source: p.Render()}
	}
	ref := newReference(p)
	if ref.err != nil {
		return fail(StageStandalone, &Outcome{Err: ref.err, Detail: "reference run"})
	}
	d := drawFuzz(p.Seed, p.Size)
	refs := references{{p.Seed, uint64(p.Size)}: ref}
	for _, stage := range stages {
		var out *Outcome
		switch stage {
		case StageStandalone:
			// Same program, another schedule: output must be a pure
			// function of the program text.
			_, _, polRec := deriveSeeds(p.Seed)
			res, err := runAlone(ref.prog, p.Seed, polRec, recoverMinQ, recoverMaxQ, ftvm.DispatchThreaded)
			out = &Outcome{Ref: ref.console, Err: err}
			if err != nil {
				out.Detail = "recovery-schedule run"
			} else {
				out.Console = res.Console
				out.Detail, _ = fuzzgen.CompareFrames(out.Ref, out.Console)
			}
		case StageDispatch:
			out = c.dispatch(p.Seed, ref.prog, d)
		default:
			sc := d.scenarios[stage]
			if sc == nil {
				return fail(stage, &Outcome{Err: fmt.Errorf("unknown stage %q", stage)})
			}
			out = refs.run(sc)
		}
		if c.tamper != nil && !out.Failed() && stage != StageDispatch {
			out.Console = c.tamper(stage, out.Console)
			out.Detail, _ = fuzzgen.CompareFrames(out.Ref, out.Console)
		}
		if out.Failed() {
			return fail(stage, out)
		}
	}
	return nil
}

// dispatch runs the program once per interpreter stream on one fresh
// schedule. Unlike the other stages — which compare per-writer frame streams
// because cross-writer interleaving is legally schedule-dependent — the two
// runs follow the identical schedule, so the full console must match byte
// for byte and the Stats counters exactly. Its verdict holds the threaded
// stream's (tampered) console against the switch stream's as Ref.
func (c *FuzzConfig) dispatch(seed uint64, prog *ftvm.Program, d fuzzDraws) *Outcome {
	swRes, err := runAlone(prog, seed, d.dispSeed, d.dispQlo, d.dispQhi, ftvm.DispatchSwitch)
	if err != nil {
		return &Outcome{Err: err, Detail: "switch-engine run"}
	}
	thRes, err := runAlone(prog, seed, d.dispSeed, d.dispQlo, d.dispQhi, ftvm.DispatchThreaded)
	if err != nil {
		return &Outcome{Err: err, Detail: "threaded-engine run"}
	}
	out := &Outcome{Ref: swRes.Console, Console: thRes.Console}
	if c.tamper != nil {
		out.Console = c.tamper(StageDispatch, out.Console)
	}
	sw, got := out.Ref, out.Console
	switch {
	case !slices.Equal(sw, got):
		i := 0
		for i < len(sw) && i < len(got) && sw[i] == got[i] {
			i++
		}
		out.Detail = fmt.Sprintf("engines diverged at console line %d (switch %d lines, threaded %d)", i, len(sw), len(got))
	case c.tamper == nil && swRes.Stats != thRes.Stats:
		out.Detail = fmt.Sprintf("engines diverged on stats: switch %+v vs threaded %+v", swRes.Stats, thRes.Stats)
	}
	return out
}

// Shrink minimizes p while it still fails at f's stage, the same way (ran
// and diverged, or failed to run), within budget checks (0 = the shrinker's
// default). It returns the smallest such program and its failure.
func (c *FuzzConfig) Shrink(p *fuzzgen.Prog, f *FuzzFailure, budget int) (*fuzzgen.Prog, *FuzzFailure) {
	best := f
	sp := fuzzgen.Shrink(p, func(cand *fuzzgen.Prog) bool {
		g := c.CheckProg(cand, []string{f.Stage})
		if g == nil || g.Stage != f.Stage || (g.Outcome.Err != nil) != (f.Outcome.Err != nil) {
			return false
		}
		best = g
		return true
	}, budget)
	return sp, best
}

// Report shrinks the failure, writes artifacts when c.ArtifactDir is set, and
// returns a human-readable summary — the one-stop path from "a seed failed"
// to "here is the minimized repro".
func (c *FuzzConfig) Report(p *fuzzgen.Prog, f *FuzzFailure) string {
	_, sf := c.Shrink(p, f, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", sf)
	fmt.Fprintf(&b, "program shrunk to %d lines\n", strings.Count(sf.Source, "\n"))
	fmt.Fprintf(&b, "replay (the seed's unshrunken program): %s\n", sf.ReplayCommand())
	if c.ArtifactDir != "" {
		if mini, err := writeArtifact(c.ArtifactDir, sf); err != nil {
			fmt.Fprintf(&b, "artifact write failed: %v\n", err)
		} else {
			fmt.Fprintf(&b, "repro written to %s\n", mini)
		}
	}
	return b.String()
}

// writeArtifact persists a (typically shrunken) failure as a repro artifact
// set in dir:
//
//	seed<seed>-<stage>.mini     minimized program, with a repro header
//	seed<seed>-<stage>.ref.txt  reference console
//	seed<seed>-<stage>.got.txt  diverging console (empty on execution error)
//
// It returns the .mini path.
func writeArtifact(dir string, f *FuzzFailure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("seed%d-%s", f.Seed, f.Stage))
	var hdr strings.Builder
	fmt.Fprintf(&hdr, "// fuzzgen repro: seed %d diverged at stage %q\n", f.Seed, f.Stage)
	if f.Outcome.Err != nil {
		fmt.Fprintf(&hdr, "// error: %v\n", f.Outcome.Err)
	}
	if f.Outcome.Detail != "" {
		fmt.Fprintf(&hdr, "// detail: %s\n", f.Outcome.Detail)
	}
	fmt.Fprintf(&hdr, "// replay (the seed's unshrunken program): %s\n", f.ReplayCommand())
	lines := func(ls []string) []byte {
		if len(ls) == 0 {
			return nil
		}
		return []byte(strings.Join(ls, "\n") + "\n")
	}
	for _, w := range []struct {
		suffix string
		data   []byte
	}{{".mini", []byte(hdr.String() + f.Source)}, {".ref.txt", lines(f.Outcome.Ref)}, {".got.txt", lines(f.Outcome.Console)}} {
		if err := os.WriteFile(base+w.suffix, w.data, 0o644); err != nil {
			return "", err
		}
	}
	return base + ".mini", nil
}
