// Package simtest is the deterministic simulation harness: it runs a complete
// replicated system — the primary/backup pair, the three-node view-change
// cluster, the VM over the 3-replica consensus log, or the sharded fleet —
// inside one process on a virtual clock (internal/simtest/clock) over a
// seeded simulated network (internal/simtest/simnet), so that an entire fault
// schedule — who crashed, at which exact frame, with which message delays and
// losses — is a function of a handful of seeds. A sweep over hundreds of kill
// points and fault schedules (RunSweep) completes in about a second of wall
// time, and any failure reproduces from the single key the sweep prints.
//
// There is one engine. A kind of schedule is a Scenario: a struct whose field
// table is its replay-key grammar, an enumerator that expands a SweepConfig
// into schedules, and a run that plays one schedule and reports deterministic
// summary columns. Key, ParseKey, Run, Outcome and RunSweep are written once
// over that contract. The differential fuzzer (FuzzConfig) runs on it too.
//
// The style follows FoundationDB's simulation testing: virtual time advances
// only when every participant is blocked, all nondeterminism is drawn from
// seeded PRNGs, and the assertion is the paper's exactly-once contract —
// whatever the schedule does, the recovered execution's observable output
// matches the failure-free reference.
package simtest

import (
	"fmt"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
	frand "repro/internal/fuzzgen/rand"
	"repro/internal/simtest/clock"
)

// Kind names one of the four simulated systems.
type Kind int

const (
	// KindPair is the primary/backup pair (*Combo).
	KindPair Kind = iota
	// KindView is the three-node view-change cluster (*ViewCombo).
	KindView
	// KindFleet is the sharded multi-tenant fleet (*FleetCombo).
	KindFleet
	// KindConsensus is the VM over the 3-replica replicated log
	// (*ConsensusCombo).
	KindConsensus
)

// kinds is the registry the engine dispatches on: how to make an empty
// scenario of a kind (ParseKey fills it) and how to expand a SweepConfig into
// that kind's schedule list.
var kinds = [...]struct {
	name      string
	new       func() Scenario
	enumerate func(*SweepConfig) []Scenario
}{
	KindPair:      {"pair", func() Scenario { return new(Combo) }, pairCombos},
	KindView:      {"view", func() Scenario { return new(ViewCombo) }, viewCombos},
	KindFleet:     {"fleet", func() Scenario { return new(FleetCombo) }, fleetCombos},
	KindConsensus: {"consensus", func() Scenario { return new(ConsensusCombo) }, consensusCombos},
}

// String implements fmt.Stringer.
func (k Kind) String() string { return kinds[k].name }

// Scenario is one replayable point of a sweep: *Combo, *ViewCombo,
// *FleetCombo or *ConsensusCombo. The unexported methods are the whole
// contract between a kind and the engine.
type Scenario interface {
	// Kind reports which simulated system the scenario drives.
	Kind() Kind
	// fields is the scenario's replay-key grammar, in key order, bound to
	// the receiver's members.
	fields() []field
	// program names the generated program the schedule runs; ok is false
	// for a kind that runs no program (the fleet), whose verdict is then its
	// invariants alone rather than a comparison against a reference console.
	program() (seed uint64, size fuzzgen.Size, ok bool)
	// run plays the schedule on a fresh virtual clock and reports into out:
	// Result, Summary and Console, plus in Detail any invariant of the kind
	// that broke beyond output equality (a stale frame acted on, an op
	// executed twice). An error means the harness or the replication
	// contract broke, not merely that the injected failure fired.
	run(prog *ftvm.Program, out *Outcome) error
}

// Outcome is one scenario's result plus the verdict.
type Outcome struct {
	Scenario Scenario
	// Result is the kind's own result struct, for tests that look past the
	// verdict (*cluster.Result for the pair and consensus, *ViewClusterResult,
	// *loadgen.Stats).
	Result any
	// Summary is the kind's trace columns. Only deterministic fields belong
	// here (virtual time, never wall time), so a sweep's trace can be
	// compared across runs.
	Summary string
	// Console is the observable output once the schedule fully played out;
	// Ref the failure-free reference it is held against (both nil for a kind
	// that runs no program).
	Ref, Console []string
	Detail       string // "" when output matched the reference and invariants held
	Err          error  // harness/contract error (already a failure)
}

// Failed reports whether the scenario diverged, broke an invariant or errored.
func (o *Outcome) Failed() bool { return o.Err != nil || o.Detail != "" }

// failWords names a failed verdict, in a trace line and in an error: a kind
// that runs a program is held against its reference console, the fleet only
// against its invariants.
func (o *Outcome) failWords() (trace, noun string) {
	if _, _, hasRef := o.Scenario.program(); hasRef {
		return "DIVERGE", "divergence"
	}
	return "FAIL", "invariant failure"
}

// Failure returns the verdict as an error, nil when the schedule held.
func (o *Outcome) Failure() error {
	if o.Err != nil || o.Detail == "" {
		return o.Err
	}
	_, noun := o.failWords()
	return fmt.Errorf("%s: %s", noun, o.Detail)
}

// TraceLine renders key -> summary verdict, one line.
func (o *Outcome) TraceLine() string {
	line := Key(o.Scenario) + " -> "
	word, _ := o.failWords()
	switch {
	case o.Err != nil:
		return line + fmt.Sprintf("ERROR %v", o.Err)
	case o.Detail != "":
		return line + o.Summary + " " + word + " " + o.Detail
	}
	return line + o.Summary + " ok"
}

// ReplayCommand renders the shell command that reproduces this scenario alone.
func (o *Outcome) ReplayCommand() string {
	return fmt.Sprintf("go run ./cmd/ftvm-sim -replay %q", Key(o.Scenario))
}

// deriveSeeds expands a program seed into the run's environment, primary
// policy, and recovery policy seeds (split from the program seed so shrunken
// or hand-picked programs keep their schedules). Every kind and every stage
// of the differential check derives them here.
func deriveSeeds(progSeed uint64) (envSeed, polRef, polRec int64) {
	drv := frand.New(progSeed ^ 0x51731EED)
	return int64(drv.Next()>>2) | 1, int64(drv.Next()>>2) | 1, int64(drv.Next()>>2) | 1
}

// reference is one generated program, compiled, with its failure-free output.
type reference struct {
	prog    *ftvm.Program
	console []string
	err     error
}

// references caches them, so a sweep compiles and reference-runs each
// program once however many schedules replay it.
type references map[[2]uint64]*reference

func (c references) get(seed uint64, size fuzzgen.Size) *reference {
	id := [2]uint64{seed, uint64(size)}
	if c[id] == nil {
		c[id] = newReference(fuzzgen.Generate(seed, size))
	}
	return c[id]
}

// newReference compiles p and runs it alone under the primary's schedule. The
// program need not be the one its seed generates: the fuzzer's shrinker hands
// in smaller variants, which keep the seed and so every schedule.
func newReference(p *fuzzgen.Prog) *reference {
	seed := p.Seed
	_, polRef, _ := deriveSeeds(seed)
	prog, err := ftvm.CompileSource(fmt.Sprintf("sim-%d", seed), p.Render())
	if err != nil {
		return &reference{err: fmt.Errorf("compile seed %d: %w", seed, err)}
	}
	res, err := runAlone(prog, seed, polRef, minQuantum, maxQuantum, ftvm.DispatchThreaded)
	if err != nil {
		return &reference{err: fmt.Errorf("reference run seed %d: %w", seed, err)}
	}
	return &reference{prog: prog, console: res.Console}
}

// runAlone runs prog unreplicated over the environment seed derives, under
// the given schedule and interpreter stream.
func runAlone(prog *ftvm.Program, seed uint64, policy int64, minQ, maxQ uint64, d ftvm.Dispatch) (*ftvm.Result, error) {
	envSeed, _, _ := deriveSeeds(seed)
	return ftvm.Run(prog, ftvm.Options{EnvSeed: envSeed, PolicySeed: policy,
		MinQuantum: minQ, MaxQuantum: maxQ, MaxInstructions: maxInstructions, Dispatch: d})
}

// run plays one scenario and judges it: per-writer output streams against the
// failure-free reference when the kind runs a program, then the kind's own
// invariants.
func (c references) run(sc Scenario) *Outcome {
	out := &Outcome{Scenario: sc}
	var prog *ftvm.Program
	if seed, size, ok := sc.program(); ok {
		ref := c.get(seed, size)
		if ref.err != nil {
			out.Err = ref.err
			return out
		}
		prog, out.Ref = ref.prog, ref.console
	}
	if out.Err = sc.run(prog, out); out.Err == nil && prog != nil {
		diverged, _ := fuzzgen.CompareFrames(out.Ref, out.Console)
		out.Detail = strings.TrimSpace(diverged + " " + out.Detail)
	}
	return out
}

// Run plays one scenario (typically from ParseKey) and returns its outcome.
func Run(sc Scenario) *Outcome { return references{}.run(sc) }

// SweepConfig selects a kind and the axes of its schedule space that callers
// vary; everything else about a kind's space (which faults, which partition
// windows, the fleet's shape) is fixed in its enumerator. A nil or zero axis
// takes the kind's default.
type SweepConfig struct {
	// Kind is the simulated system (default KindPair).
	Kind Kind
	// Seeds are the generated-program seeds — for the fleet, the workload
	// master seeds (required).
	Seeds []uint64
	// Size is the generated-program size tier (default SizeSmall).
	Size fuzzgen.Size
	// Modes defaults to all three replica-coordination modes.
	Modes []ftvm.Mode
	// Kills are the first crash positions, in sends of the victim: pair
	// frame sends (default 1, 3, 8, 20), the view cluster's first primary
	// (1, 3, 8), consensus protocol sends (2, 5, 12 — first appends through
	// mid-stream).
	Kills []int
	// Kills2 are the view cluster's promoted-primary crash positions,
	// counted on the new pair's link where snapshot frames come first
	// (default 1, 2, 6 — mid-transfer through mid-tail).
	Kills2 []int
	// NetSeeds vary message latency/reordering draws (default {1}).
	NetSeeds []int64
	// ESeeds vary the consensus election timeout streams (default {1}).
	ESeeds []uint64
	// Clients / Ops give the fleet's per-combo population (default 1000 x 3).
	Clients, Ops int
}

var allModes = []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval}

// orDefault returns axis, or def when the caller left it empty.
func orDefault[T any](axis []T, def ...T) []T {
	if len(axis) == 0 {
		return def
	}
	return axis
}

// Scenarios expands the configuration into its full, ordered schedule list.
func (c SweepConfig) Scenarios() []Scenario {
	c.Modes = orDefault(c.Modes, allModes...)
	c.NetSeeds = orDefault(c.NetSeeds, 1)
	return kinds[c.Kind].enumerate(&c)
}

// SweepResult is the outcome of a full sweep.
type SweepResult struct {
	Combos   int
	Failures []*Outcome
	Trace    []string
	Elapsed  time.Duration // wall time (reporting only; never in the trace)
}

// RunSweep plays every scenario in order, emitting one trace line per
// scenario via logf (nil = collect only). The trace is a pure function of the
// configuration: the same sweep twice yields byte-identical traces,
// simulated timestamps included.
func RunSweep(cfg SweepConfig, logf func(string)) *SweepResult {
	scenarios := cfg.Scenarios()
	res := &SweepResult{Combos: len(scenarios)}
	t0 := clock.Real.Now()
	refs := references{}
	for _, sc := range scenarios {
		out := refs.run(sc)
		line := out.TraceLine()
		res.Trace = append(res.Trace, line)
		if logf != nil {
			logf(line)
		}
		if out.Failed() {
			res.Failures = append(res.Failures, out)
		}
	}
	res.Elapsed = clock.Real.Since(t0)
	return res
}
