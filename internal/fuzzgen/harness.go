package fuzzgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/cluster"
	"repro/internal/env"
	frand "repro/internal/fuzzgen/rand"
	"repro/internal/replication"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
)

// Stages of the differential check. Each runs the same program a different
// way; all of them must observably agree with the standalone reference run.
const (
	StageStandalone = "standalone" // re-run under a different schedule
	StageReplicated = "replicated" // primary+backup, full-log replay compared
	StageFailover   = "failover"   // primary killed / channel fault, backup finishes
	StageConsensus  = "consensus"  // consensus-backed run + committed-log replay compared
	StageDispatch   = "dispatch"   // switch vs threaded engine, byte-identical console + stats
)

// AllStages returns the five stages in check order.
func AllStages() []string {
	return []string{StageStandalone, StageReplicated, StageFailover, StageConsensus, StageDispatch}
}

// Config drives the differential harness.
type Config struct {
	// Size selects the generated-program size tier.
	Size Size
	// MaxInstructions bounds every run (default 50M) so generator bugs
	// surface as errors instead of hangs.
	MaxInstructions uint64
	// ArtifactDir, when non-empty, receives minimized repro artifacts for
	// every failure (see WriteArtifact).
	ArtifactDir string

	// tamper, when set, rewrites a stage's observed output before
	// comparison. It exists so tests can inject a divergence and watch the
	// shrinker and artifact writer do their jobs.
	tamper func(stage string, lines []string) []string
}

func (c *Config) maxInstructions() uint64 {
	if c.MaxInstructions == 0 {
		return 50_000_000
	}
	return c.MaxInstructions
}

// Failure describes one divergence or execution error. Err != nil means the
// stage failed to run (compile error, VM error, deadlock); Err == nil means
// it ran and diverged from the reference output.
type Failure struct {
	Seed   uint64
	Size   Size
	Stage  string
	Err    error
	Detail string   // which stream/frame diverged
	Ref    []string // reference console
	Got    []string // diverging console
	Source string   // program source at detection time
}

// Error implements error.
func (f *Failure) Error() string {
	if f.Err != nil {
		return fmt.Sprintf("seed %d stage %s: %v", f.Seed, f.Stage, f.Err)
	}
	return fmt.Sprintf("seed %d stage %s: output divergence: %s", f.Seed, f.Stage, f.Detail)
}

// params are the seed-derived check parameters. They depend only on the seed
// — never on program content — so shrunken candidates replay the identical
// schedule seeds, replication mode, and fault plan.
type params struct {
	envSeed        int64
	polRef         int64 // reference + primary scheduling seed
	polAlt         int64 // second-schedule + recovery scheduling seed
	repMode        ftvm.Mode
	killAt         int
	useFault       bool
	faultKind      transport.FaultKind
	faultAt        int
	faultSeed      int64
	minQ, maxQ     uint64
	altQlo, altQhi uint64
	consSeed       uint64 // consensus election-schedule seed
	polDisp        int64  // dispatch-column scheduling seed
	dispQlo        uint64 // dispatch-column quantum range
	dispQhi        uint64
}

func (c *Config) derive(seed uint64) params {
	drv := frand.New(seed ^ 0xD1F5C0DE)
	modes := []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval}
	kinds := []transport.FaultKind{
		transport.FaultDropSend, transport.FaultDelaySend, transport.FaultDuplicateSend,
		transport.FaultPartialSend, transport.FaultCloseAtSend, transport.FaultCloseAtRecv,
		transport.FaultPartitionSend, transport.FaultPartitionRecv,
	}
	pr := params{
		envSeed:   int64(drv.Next()>>2) | 1,
		polRef:    int64(drv.Next()>>2) | 1,
		polAlt:    int64(drv.Next()>>2) | 1,
		repMode:   modes[drv.Intn(len(modes))],
		killAt:    1 + drv.Intn(80),
		useFault:  drv.Chance(1, 3),
		faultKind: kinds[drv.Intn(len(kinds))],
		faultAt:   1 + drv.Intn(30),
		faultSeed: int64(drv.Next()>>2) | 1,
		// Small quanta stress interleavings far more than the defaults.
		minQ: 64, maxQ: 512,
		altQlo: 100, altQhi: 900,
	}
	// Drawn after every pre-existing parameter so older seeds keep their
	// exact schedules, modes, and fault plans.
	pr.consSeed = drv.Next() | 1
	// Dispatch-column draws come after consSeed for the same reason: the
	// engine cross-check gets its own schedule without perturbing any
	// parameter an older seed already pinned.
	pr.polDisp = int64(drv.Next()>>2) | 1
	pr.dispQlo = 32 + uint64(drv.Intn(96))
	pr.dispQhi = pr.dispQlo + 64 + uint64(drv.Intn(1024))
	return pr
}

// SimReplayKey renders the deterministic-simulation replay string for a
// failure: the same generated program (seed and size) and the seed-derived
// replication mode and fault schedule, replayed under internal/simtest's
// virtual-clock single-process cluster (`ftvm-sim -replay`). The crash
// position carries over by index — frame sends in the simulator versus
// logged records in the live harness — so the schedule is analogous rather
// than identical; the value is a fully deterministic reproduction vehicle
// for the same program, mode, and fault family. The format is a pair key of
// simtest.ParseKey (pinned by TestFuzzReplayKeyParses there).
func SimReplayKey(f *Failure) string {
	pr := (&Config{}).derive(f.Seed)
	kill, fault, at := pr.killAt, "none", 0
	if pr.useFault {
		kill = 0
		fault, at = pr.faultKind.String(), pr.faultAt
	}
	return fmt.Sprintf("prog=%d,size=%s,mode=%s,kill=%d,deliver=0,fault=%s@%d,net=1,reorder=1/8",
		f.Seed, f.Size, pr.repMode, kill, fault, at)
}

// CheckSeed generates the program for seed and checks the given stages
// (all three when stages is nil). A nil return means full agreement.
func (c *Config) CheckSeed(seed uint64, stages []string) *Failure {
	return c.CheckProg(Generate(seed, c.Size), stages)
}

// CheckProg runs the differential check on an explicit program IR (the
// shrinker re-checks candidates through this).
func (c *Config) CheckProg(p *Prog, stages []string) *Failure {
	if stages == nil {
		stages = AllStages()
	}
	src := p.Render()
	pr := c.derive(p.Seed)
	fail := func(stage string, err error, detail string, ref, got []string) *Failure {
		return &Failure{Seed: p.Seed, Size: p.Size, Stage: stage, Err: err, Detail: detail,
			Ref: ref, Got: got, Source: src}
	}

	prog, err := ftvm.CompileSource(fmt.Sprintf("fuzz-%d", p.Seed), src)
	if err != nil {
		return fail("compile", err, "", nil, nil)
	}

	// Reference: one standalone run under the primary's scheduling seed.
	refRes, err := ftvm.Run(prog, ftvm.Options{
		EnvSeed: pr.envSeed, PolicySeed: pr.polRef,
		MinQuantum: pr.minQ, MaxQuantum: pr.maxQ,
		MaxInstructions: c.maxInstructions(),
	})
	if err != nil {
		return fail(StageStandalone, err, "reference run", nil, nil)
	}
	ref := refRes.Console

	compare := func(stage string, got []string) *Failure {
		if c.tamper != nil {
			got = c.tamper(stage, got)
		}
		if detail, ok := compareFrames(ref, got); !ok {
			return fail(stage, nil, detail, ref, got)
		}
		return nil
	}

	for _, stage := range stages {
		switch stage {
		case StageStandalone:
			// Same program, different schedule: output must be a pure
			// function of the program text.
			res, err := ftvm.Run(prog, ftvm.Options{
				EnvSeed: pr.envSeed, PolicySeed: pr.polAlt,
				MinQuantum: pr.altQlo, MaxQuantum: pr.altQhi,
				MaxInstructions: c.maxInstructions(),
			})
			if err != nil {
				return fail(stage, err, "alternate-schedule run", nil, nil)
			}
			if f := compare(stage, res.Console); f != nil {
				return f
			}

		case StageReplicated:
			var envs []*env.Env
			res, _, err := ftvm.MeasureReplay(prog, pr.repMode, ftvm.Options{
				EnvSeed: pr.envSeed, PolicySeed: pr.polRef,
				MinQuantum: pr.minQ, MaxQuantum: pr.maxQ,
				FlushEvery:      4,
				MaxInstructions: c.maxInstructions(),
			}, func() *env.Env {
				e := env.New(pr.envSeed)
				envs = append(envs, e)
				return e
			})
			if err != nil {
				return fail(stage, err, "replicated run", nil, nil)
			}
			if f := compare(stage, res.Console); f != nil {
				f.Detail = "primary: " + f.Detail
				return f
			}
			// The backup replayed the complete log over a fresh environment
			// (envs[1]); its reconstructed console is the frame-by-frame
			// comparison target.
			if len(envs) != 2 {
				return fail(stage, fmt.Errorf("expected 2 environments, got %d", len(envs)), "", nil, nil)
			}
			if f := compare(stage, envs[1].Console().Lines()); f != nil {
				f.Detail = "backup replay: " + f.Detail
				return f
			}

		case StageFailover:
			var got []string
			var err error
			if pr.useFault {
				got, err = c.runFaultyPair(prog, pr)
			} else {
				var res *ftvm.ReplicatedResult
				res, err = ftvm.RunWithFailover(prog, pr.repMode,
					ftvm.KillAfterRecords(pr.killAt), ftvm.Options{
						EnvSeed: pr.envSeed, PolicySeed: pr.polRef,
						MinQuantum: pr.minQ, MaxQuantum: pr.maxQ,
						FlushEvery:      4,
						MaxInstructions: c.maxInstructions(),
					})
				if res != nil {
					got = res.Console
				}
			}
			if err != nil {
				return fail(stage, err, "failover run", nil, nil)
			}
			if f := compare(stage, got); f != nil {
				return f
			}

		case StageConsensus:
			// The fourth column: the same program over the consensus-backed
			// coordination path, on its own virtual clock so elections and
			// commit waits cost no wall time. Both the leader-side console and
			// the committed-log replay must match the reference streams.
			var envs []*env.Env
			res, runErr := clock.Drive(time.Minute, func(vclk *clock.Virtual) (*ftvm.ReplicatedResult, error) {
				res, _, err := ftvm.MeasureReplay(prog, pr.repMode, ftvm.Options{
					EnvSeed: pr.envSeed, PolicySeed: pr.polRef,
					MinQuantum: pr.minQ, MaxQuantum: pr.maxQ,
					FlushEvery:      4,
					MaxInstructions: c.maxInstructions(),
					Backend:         ftvm.BackendConsensus,
					ConsensusSeed:   pr.consSeed,
					Clock:           vclk,
				}, func() *env.Env {
					e := env.New(pr.envSeed)
					envs = append(envs, e)
					return e
				})
				return res, err
			})
			if runErr != nil {
				return fail(stage, runErr, "consensus run", nil, nil)
			}
			if f := compare(stage, res.Console); f != nil {
				f.Detail = "leader: " + f.Detail
				return f
			}
			if len(envs) != 2 {
				return fail(stage, fmt.Errorf("expected 2 environments, got %d", len(envs)), "", nil, nil)
			}
			if f := compare(stage, envs[1].Console().Lines()); f != nil {
				f.Detail = "committed-log replay: " + f.Detail
				return f
			}

		case StageDispatch:
			// The fifth column: the same program, the same fresh schedule,
			// once per interpreter stream. Unlike the other columns — which
			// compare per-writer frame streams because cross-writer
			// interleaving is legally schedule-dependent — the two runs
			// here follow the *identical* schedule, so the full console must
			// match byte for byte and the Stats counters exactly.
			runWith := func(d ftvm.Dispatch) (*ftvm.Result, error) {
				return ftvm.Run(prog, ftvm.Options{
					EnvSeed: pr.envSeed, PolicySeed: pr.polDisp,
					MinQuantum: pr.dispQlo, MaxQuantum: pr.dispQhi,
					MaxInstructions: c.maxInstructions(),
					Dispatch:        d,
				})
			}
			swRes, err := runWith(ftvm.DispatchSwitch)
			if err != nil {
				return fail(stage, err, "switch-engine run", nil, nil)
			}
			thRes, err := runWith(ftvm.DispatchThreaded)
			if err != nil {
				return fail(stage, err, "threaded-engine run", nil, nil)
			}
			got := thRes.Console
			if c.tamper != nil {
				got = c.tamper(stage, got)
			}
			for i := 0; i < len(swRes.Console) || i < len(got); i++ {
				var s, g string
				if i < len(swRes.Console) {
					s = swRes.Console[i]
				}
				if i < len(got) {
					g = got[i]
				}
				if s != g {
					return fail(stage, nil,
						fmt.Sprintf("engines diverged at console line %d: switch %q vs threaded %q", i, s, g),
						swRes.Console, got)
				}
			}
			if c.tamper == nil && swRes.Stats != thRes.Stats {
				return fail(stage, nil,
					fmt.Sprintf("engines diverged on stats: switch %+v vs threaded %+v", swRes.Stats, thRes.Stats),
					swRes.Console, got)
			}

		default:
			return fail(stage, fmt.Errorf("unknown stage %q", stage), "", nil, nil)
		}
	}
	return nil
}

// runFaultyPair reuses the channel-fault machinery: the primary's endpoint is
// wrapped with a seeded transport fault, both failure detectors are armed,
// and whatever the channel does the pair must either complete or detect the
// failure and recover at the backup — with the reference output either way.
func (c *Config) runFaultyPair(prog *ftvm.Program, pr params) ([]string, error) {
	res, err := cluster.Run(cluster.Config{
		Primary: replication.PrimaryConfig{
			Mode:       pr.repMode,
			Policy:     vm.NewSeededPolicy(pr.polRef, pr.minQ, pr.maxQ),
			FlushEvery: 4,
		},
		// Recovery runs under a deliberately different scheduling policy.
		Recover: replication.RecoverConfig{
			Program:         prog,
			Env:             env.New(pr.envSeed),
			Policy:          vm.NewSeededPolicy(pr.polAlt, pr.altQlo, pr.altQhi),
			MaxInstructions: c.maxInstructions(),
		},
		Link: func(int, int) (transport.Endpoint, transport.Endpoint) {
			pEnd, bEnd := transport.Pipe(transport.PipeCapacity)
			return transport.NewFaulty(pEnd, transport.FaultPlan{Kind: pr.faultKind, At: pr.faultAt}, pr.faultSeed), bEnd
		},
		AckTimeout:     150 * time.Millisecond,
		FailureTimeout: 150 * time.Millisecond,
		FailStopOnLoss: true,
	})
	if err != nil {
		return nil, err
	}
	return res.Console, nil
}

// CompareFrames reports the first per-writer frame difference between two
// consoles ("" and true when they agree). Exported for the deterministic
// simulation sweep (internal/simtest), which checks simulated-cluster output
// against the same reference streams the fuzz harness uses.
func CompareFrames(ref, got []string) (detail string, ok bool) {
	return compareFrames(ref, got)
}

// frames splits console lines into per-writer streams using the generated
// "<stream>|<payload>" tags. Cross-writer interleaving is legally
// schedule-dependent; each writer's own subsequence is not.
func frames(lines []string) map[string][]string {
	out := make(map[string][]string)
	for _, ln := range lines {
		stream := "?"
		if i := strings.IndexByte(ln, '|'); i >= 0 {
			stream = ln[:i]
		}
		out[stream] = append(out[stream], ln)
	}
	return out
}

// compareFrames reports the first frame-by-frame difference between the
// per-writer streams of ref and got ("" and true when identical).
func compareFrames(ref, got []string) (string, bool) {
	rf, gf := frames(ref), frames(got)
	var streams []string
	for s := range rf {
		streams = append(streams, s)
	}
	for s := range gf {
		if _, ok := rf[s]; !ok {
			streams = append(streams, s)
		}
	}
	sort.Strings(streams)
	for _, s := range streams {
		r, g := rf[s], gf[s]
		n := len(r)
		if len(g) < n {
			n = len(g)
		}
		for i := 0; i < n; i++ {
			if r[i] != g[i] {
				return fmt.Sprintf("stream %q frame %d: ref %q vs got %q", s, i, r[i], g[i]), false
			}
		}
		if len(r) != len(g) {
			return fmt.Sprintf("stream %q: ref has %d frames, got %d", s, len(r), len(g)), false
		}
	}
	return "", true
}
