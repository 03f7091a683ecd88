// Package ftvm is the public API of the fault-tolerant virtual machine — a
// Go reproduction of "A Fault-Tolerant Java Virtual Machine" (Napper,
// Alvisi, Vin; DSN 2003).
//
// It exposes the pieces a user composes:
//
//   - programs: compile minilang source (CompileSource), assemble FTVM text
//     assembly (Assemble), or load/store binary images;
//   - standalone execution: Run;
//   - replicated execution: RunReplicated runs a primary/backup pair to
//     completion; RunWithFailover kills the primary mid-run and has the cold
//     backup recover from the log and finish the program.
//
// Three replica-coordination modes are available: the paper's two
// techniques — ModeLock (replicated lock acquisition, §4.2) and ModeSched
// (replicated thread scheduling, §4.2) — plus ModeLockInterval, the
// logical-interval compression its §6 projects. Backups are cold by default
// (the paper's design); RunWarmReplicated runs a semi-active warm backup
// that executes concurrently with the primary.
package ftvm

import (
	"errors"
	"io"
	"time"

	"repro/internal/bytecode"
	"repro/internal/cluster"
	"repro/internal/env"
	"repro/internal/minilang"
	"repro/internal/native"
	"repro/internal/replication"
	"repro/internal/sehandler"
	"repro/internal/simtest/clock"
	"repro/internal/vm"
)

// Program is a verified FTVM program.
type Program = bytecode.Program

// Stats are the VM execution counters.
type Stats = vm.Stats

// Mode selects the multi-threading replica-coordination technique.
type Mode = replication.Mode

// Dispatch selects the stream the interpreter runs (vm.Dispatch): the default
// wide-fused one, or the unfused one stepped an instruction at a time. Both
// produce bit-identical event logs, recovery records and console output.
type Dispatch = vm.Dispatch

// Interpreter streams.
const (
	// DispatchThreaded runs fused superinstruction blocks (default).
	DispatchThreaded = vm.DispatchThreaded
	// DispatchSwitch steps the unfused stream; the name is historical.
	DispatchSwitch = vm.DispatchSwitch
)

// Replication modes.
const (
	// ModeLock replicates the sequence of monitor acquisitions.
	ModeLock = replication.ModeLock
	// ModeSched replicates thread scheduling decisions.
	ModeSched = replication.ModeSched
	// ModeLockInterval is lock replication with DejaVu-style logical
	// interval compression (the paper's §6 optimization, implemented).
	ModeLockInterval = replication.ModeLockInterval
)

// ErrBackupLost is the primary-side failure detector's verdict: the backup
// stopped acknowledging within Options.AckTimeout (or its transport failed).
// Returned (wrapped) from replicated runs.
var ErrBackupLost = replication.ErrBackupLost

// BackendKind selects how the primary's frame stream reaches a durable,
// ordered, committed log (the replication.CoordinationBackend behind a
// replicated run).
type BackendKind int

const (
	// BackendPair is the paper's primary/backup pair: one cold backup logs
	// frames and acknowledges output commits (default).
	BackendPair BackendKind = iota
	// BackendConsensus replicates frames onto a 3-replica consensus log; an
	// output commit blocks until majority commit in the leader's term
	// (internal/consensus). The VM is colocated with the elected leader, and
	// RunWithFailover kills leader and VM together: the survivors elect,
	// re-commit, and recovery replays their committed prefix.
	BackendConsensus
)

// CompileSource compiles minilang source into a program.
func CompileSource(name, src string) (*Program, error) {
	return minilang.Compile(name, src)
}

// Assemble parses FTVM text assembly into a program.
func Assemble(src string) (*Program, error) {
	return bytecode.AssembleString(src)
}

// Disassemble renders a program as text assembly.
func Disassemble(p *Program) string { return bytecode.Disassemble(p) }

// EncodeProgram writes the binary image of p.
func EncodeProgram(w io.Writer, p *Program) error { return bytecode.Encode(w, p) }

// DecodeProgram reads a binary program image.
func DecodeProgram(r io.Reader) (*Program, error) { return bytecode.Decode(r) }

// Options tune an execution.
type Options struct {
	// EnvSeed derives the environment's clock jitter and entropy (default 1).
	EnvSeed int64
	// PolicySeed seeds the (primary's) scheduling policy (default 1).
	PolicySeed int64
	// MinQuantum/MaxQuantum bound the scheduling quantum in branch counts
	// (defaults 1024/8192).
	MinQuantum, MaxQuantum uint64
	// FlushEvery caps the log records buffered between output commits
	// (default 4096); frames otherwise ship only at output commits.
	FlushEvery int
	// MaxInstructions aborts runaway programs (0 = unlimited).
	MaxInstructions uint64
	// Env supplies a pre-built environment (files, channel messages); a
	// fresh one is created from EnvSeed when nil.
	Env *env.Env
	// AckTimeout bounds the primary's output-commit wait: if the backup does
	// not acknowledge within this window it is declared lost
	// (replication.ErrBackupLost) instead of blocking the output path
	// forever (0 = wait forever, the paper's pure pessimism).
	AckTimeout time.Duration
	// Backend selects the coordination path for replicated runs (default
	// BackendPair). BackendConsensus reads AckTimeout as the bound on each
	// majority-commit wait.
	Backend BackendKind
	// ConsensusSeed pins the consensus cluster's randomized election
	// schedule (default 1; only meaningful with BackendConsensus).
	ConsensusSeed uint64
	// Dispatch selects the interpreter stream for every VM the run builds
	// (primary and recovery replay alike); it is the one place a stream is
	// chosen. The zero value is the fused stream; DispatchSwitch steps the
	// unfused one.
	Dispatch Dispatch
	// Clock supplies time for ack deadlines, heartbeats, kill-trigger
	// polling, transport waits, and elapsed measurements (nil = wall
	// clock). The in-process pipe is built on this clock too, so a caller
	// injecting a virtual clock (as the fuzzer's consensus column does) gets
	// a fully simulated run; such callers must invoke the run functions from a
	// clock-attached goroutine.
	Clock clock.Clock
	// CaptureLog, when set, writes the replicated run's event log to this
	// path as an .ftlog capture once the backup (or consensus log) has the
	// full record stream. The capture embeds the program, the seeds and the
	// replay policy parameters, so ftvm-debug can replay it to any position
	// without the original command line.
	CaptureLog string
}

func (o *Options) fill() {
	if o.EnvSeed == 0 {
		o.EnvSeed = 1
	}
	if o.PolicySeed == 0 {
		o.PolicySeed = 1
	}
	if o.MinQuantum == 0 {
		o.MinQuantum = 1024
	}
	if o.MaxQuantum < o.MinQuantum {
		o.MaxQuantum = o.MinQuantum * 8
	}
}

func (o *Options) clock() clock.Clock { return clock.Or(o.Clock) }

func (o *Options) environment() *env.Env {
	if o.Env != nil {
		return o.Env
	}
	o.Env = env.New(o.EnvSeed)
	return o.Env
}

// Result describes a standalone run.
type Result struct {
	Stats   Stats
	Console []string
	Elapsed time.Duration
	Env     *env.Env
}

// Run executes a program standalone (no replication).
func Run(prog *Program, opts Options) (*Result, error) {
	opts.fill()
	environ := opts.environment()
	machine, err := vm.New(vm.Config{
		Program:         prog,
		Env:             environ,
		Coordinator:     vm.NewDefaultCoordinator(vm.NewSeededPolicy(opts.PolicySeed, opts.MinQuantum, opts.MaxQuantum)),
		MaxInstructions: opts.MaxInstructions,
		Dispatch:        opts.Dispatch,
	})
	if err != nil {
		return nil, err
	}
	clk := opts.clock()
	t0 := clk.Now()
	runErr := machine.Run()
	elapsed := clk.Since(t0)
	res := &Result{
		Stats:   machine.Stats(),
		Console: environ.Console().Lines(),
		Elapsed: elapsed,
		Env:     environ,
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// ReplicatedResult describes a replicated run. Stats and Elapsed are the
// primary's (up to the kill, if any); Console is the recovered execution's
// when the backup took over; Consensus holds per-replica protocol counters
// when the run used BackendConsensus.
type ReplicatedResult = cluster.Result

// KillTrigger decides when to kill the primary in RunWithFailover: it is
// polled with the number of records the backup has logged so far and returns
// true to pull the plug. Use KillAfterRecords for the common case.
type KillTrigger func(recordsLogged int) bool

// KillAfterRecords kills the primary once the backup has logged n records.
func KillAfterRecords(n int) KillTrigger {
	return func(logged int) bool { return logged >= n }
}

// ErrWarmOption is returned (wrapped, naming the option) by RunWarmReplicated
// for an option a warm backup cannot honour: BackendConsensus, because the
// warm backup is the pair's backup executing.
var ErrWarmOption = errors.New("ftvm: option not supported with a warm backup")

// RunReplicated executes prog under primary-backup replication to clean
// completion (no failure injected).
func RunReplicated(prog *Program, mode Mode, opts Options) (*ReplicatedResult, error) {
	return cluster.Run(opts.config(prog, mode, nil))
}

// RunWithFailover executes prog replicated, kills the primary when the
// trigger fires, and recovers at the backup. The returned result's Console
// and Recovery reflect the completed recovered execution.
func RunWithFailover(prog *Program, mode Mode, trigger KillTrigger, opts Options) (*ReplicatedResult, error) {
	if trigger == nil {
		return nil, errors.New("ftvm: nil kill trigger")
	}
	return cluster.Run(opts.config(prog, mode, trigger))
}

// config is the replicated run opts describe. Every exported run function is
// a wrapper of cluster.Run over it, so every one reads every option. A
// trigger is polled by the run's poller and kills the primary's process.
func (o Options) config(prog *Program, mode Mode, trigger KillTrigger) cluster.Config {
	o.fill()
	cfg := cluster.Config{
		Primary: replication.PrimaryConfig{
			Mode:       mode,
			Policy:     vm.NewSeededPolicy(o.PolicySeed, o.MinQuantum, o.MaxQuantum),
			FlushEvery: o.FlushEvery,
			Clock:      o.Clock,
		},
		Recover:       o.recoverConfig(prog, o.environment()),
		AckTimeout:    o.AckTimeout,
		ConsensusSeed: o.ConsensusSeed,
		Capture:       o.CaptureLog,
	}
	if o.Backend == BackendConsensus {
		cfg.Topology = cluster.Consensus
	}
	if trigger != nil {
		cfg.Kill = func(f *cluster.Faults) { f.Poll(trigger) }
	}
	return cfg
}

// recoverConfig is how every backup of a run replays: the run's program and
// VM limits, under a scheduling policy seeded differently from the primary's
// — only the log makes the two agree.
func (o *Options) recoverConfig(prog *Program, environ *env.Env) replication.RecoverConfig {
	return replication.RecoverConfig{
		Program:         prog,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(o.PolicySeed^recoveryPolicyFold, o.MinQuantum, o.MaxQuantum),
		MaxInstructions: o.MaxInstructions,
		Dispatch:        o.Dispatch,
	}
}

// recoveryPolicyFold derives the recovery policy's seed from the primary's.
const recoveryPolicyFold = 0x5DEECE66D

// ReplayResult describes a backup replay measurement (the "backup" columns
// of Figure 2: the time for the backup to replay events from the log).
type ReplayResult struct {
	Elapsed time.Duration
	Report  *replication.RecoveryReport
}

// MeasureReplay runs prog replicated to completion while capturing the full
// log, then replays the entire execution at a fresh backup against a fresh
// copy of the environment: the clean-halt marker is dropped on load, so the
// replayer treats the log as a crash at the very end (the paper's backup
// replay measurement). It returns the primary-side result and the replay
// measurement. envFactory must produce identically-seeded environments.
func MeasureReplay(prog *Program, mode Mode, opts Options, envFactory func() *env.Env) (*ReplicatedResult, *ReplayResult, error) {
	if envFactory == nil {
		return nil, nil, errors.New("ftvm: nil environment factory")
	}
	opts.fill()
	opts.Env = envFactory()
	res, err := cluster.Run(opts.config(prog, mode, nil))
	if err != nil {
		return res, nil, err
	}
	backup, err := cluster.Offline(mode, res.Records())
	if err != nil {
		return res, nil, err
	}
	clk := opts.clock()
	r0 := clk.Now()
	_, report, err := backup.Recover(opts.recoverConfig(prog, envFactory()))
	return res, &ReplayResult{Elapsed: clk.Since(r0), Report: report}, err
}

// Natives returns the standard native registry (for inspection/extension).
func Natives() *native.Registry { return native.StdLib() }

// Handlers returns the default side-effect handler set.
func Handlers() *sehandler.Set { return sehandler.DefaultSet() }
