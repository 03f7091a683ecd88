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
	"fmt"
	"io"
	"time"

	"repro/internal/bytecode"
	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/minilang"
	"repro/internal/native"
	"repro/internal/replication"
	"repro/internal/sehandler"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
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

// ParseDispatch parses "threaded" or "switch" (empty = threaded).
func ParseDispatch(s string) (Dispatch, error) { return vm.ParseDispatch(s) }

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
// Returned (wrapped) from replicated runs unless DegradeOnBackupLoss is set.
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
	// FlushEvery batches this many log records per frame (default 512).
	FlushEvery int
	// GCThreshold triggers automatic GC at this live-object count
	// (default 1<<20, negative disables).
	GCThreshold int
	// MaxInstructions aborts runaway programs (0 = unlimited).
	MaxInstructions uint64
	// Env supplies a pre-built environment (files, channel messages); a
	// fresh one is created from EnvSeed when nil.
	Env *env.Env
	// Heartbeat enables primary→backup heartbeats at this period (0 = rely
	// on transport closure for failure detection).
	Heartbeat time.Duration
	// AckTimeout bounds the primary's output-commit wait: if the backup does
	// not acknowledge within this window it is declared lost
	// (replication.ErrBackupLost) instead of blocking the output path
	// forever (0 = wait forever, the paper's pure pessimism).
	AckTimeout time.Duration
	// DegradeOnBackupLoss lets the primary continue unreplicated after its
	// failure detector declares the backup lost; by default the loss aborts
	// the run with replication.ErrBackupLost.
	DegradeOnBackupLoss bool
	// PipeCapacity sizes the in-process log channel (default 1024 frames).
	PipeCapacity int
	// Backend selects the coordination path for replicated runs (default
	// BackendPair). BackendConsensus ignores Heartbeat (leader keepalives
	// live inside the consensus replicas) and reads AckTimeout as the bound
	// on each majority-commit wait.
	Backend BackendKind
	// ConsensusSeed pins the consensus cluster's randomized election
	// schedule (default 1; only meaningful with BackendConsensus).
	ConsensusSeed uint64
	// NetPerMsg/NetPerKB add a calibrated cost to every transport message,
	// simulating the paper's testbed network (two machines on 100 Mbps
	// Ethernet) on a single host. Zero means a raw in-process pipe.
	NetPerMsg time.Duration
	NetPerKB  time.Duration
	// Dispatch selects the interpreter stream for every VM the run builds
	// (primary and recovery replay alike). The zero value is the fused
	// stream; DispatchSwitch steps the unfused one.
	Dispatch Dispatch
	// Clock supplies time for ack deadlines, heartbeats, kill-trigger
	// polling, transport waits, and elapsed measurements (nil = wall
	// clock). The in-process pipe is built on this clock too, so a caller
	// injecting a virtual clock (the internal/simtest harness) gets a fully
	// simulated run; such callers must invoke the run functions from a
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
	if o.PipeCapacity == 0 {
		o.PipeCapacity = 1024
	}
}

func (o *Options) clock() clock.Clock { return clock.Or(o.Clock) }

// newPipe builds the primary/backup endpoints, wrapping the primary side
// with the simulated network cost when configured. The pipe itself runs on
// o.Clock, so under a virtual clock the whole replicated run — including
// transport waits and Recv timeouts — advances in simulated time.
func (o *Options) newPipe() (transport.Endpoint, transport.Endpoint) {
	pEnd, bEnd := transport.PipeClock(o.PipeCapacity, o.Clock)
	if o.NetPerMsg > 0 || o.NetPerKB > 0 {
		return transport.WithLatencyClock(pEnd, o.NetPerMsg, o.NetPerKB, o.Clock),
			transport.WithLatencyClock(bEnd, o.NetPerMsg, o.NetPerKB, o.Clock)
	}
	return pEnd, bEnd
}

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
		GCThreshold:     opts.GCThreshold,
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

// ReplicatedResult describes a replicated run.
type ReplicatedResult struct {
	Stats           Stats // primary VM counters (up to the kill, if any)
	Console         []string
	Elapsed         time.Duration // primary wall time
	Env             *env.Env
	Primary         replication.PrimaryMetrics
	Backup          replication.BackupStats
	Outcome         replication.ServeOutcome
	Killed          bool
	Recovery        *replication.RecoveryReport
	RecoveryElapsed time.Duration
	// Consensus holds per-replica protocol counters when the run used
	// BackendConsensus (nil for pair runs).
	Consensus []consensus.Stats
}

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
// warm backup is the pair's backup executing, and CaptureLog, because it
// consumes records as they stream and keeps no log to write.
var ErrWarmOption = errors.New("ftvm: option not supported with a warm backup")

// RunReplicated executes prog under primary-backup replication to clean
// completion (no failure injected).
func RunReplicated(prog *Program, mode Mode, opts Options) (*ReplicatedResult, error) {
	res, _, err := run(prog, mode, opts, nil, false)
	return res, err
}

// RunWithFailover executes prog replicated, kills the primary when the
// trigger fires, and recovers at the backup. The returned result's Console
// and Recovery reflect the completed recovered execution.
func RunWithFailover(prog *Program, mode Mode, trigger KillTrigger, opts Options) (*ReplicatedResult, error) {
	if trigger == nil {
		return nil, errors.New("ftvm: nil kill trigger")
	}
	res, _, err := run(prog, mode, opts, trigger, false)
	return res, err
}

// logSite is where a replicated run's log goes while the primary executes —
// the one thing that differs between a cold pair, a warm pair and a consensus
// cluster. run drives every kind through this seam; building a site fills in
// the transport half of the primary's configuration.
type logSite interface {
	// logged is the number of records logged so far, for the kill trigger.
	logged() int
	// kill fail-stops what dies with the primary's process besides its VM.
	kill()
	// wait joins the site once the primary has stopped.
	wait() (*siteLog, error)
	// close releases the site.
	close()
}

// siteLog is what a log site hands back when the run is over.
type siteLog struct {
	outcome   replication.ServeOutcome
	stats     replication.BackupStats
	consensus []consensus.Stats
	// records returns the logged stream, for the capture file and an
	// offline replay; nil where none is kept (warm).
	records func() []wire.Record
	// backup is the replica that already holds the log and recovers from it;
	// nil means recovery loads records into an offline backup.
	backup *replication.Backup
	// warm is set by a warm site, whose backup has finished the program by
	// itself: there is nothing left to recover.
	warm *replication.WarmResult
}

// run is the one replicated-run body: primary, VM, log site, kill poller,
// result, capture, recovery. Every exported run function is a wrapper of it,
// so every one reads every option.
func run(prog *Program, mode Mode, opts Options, trigger KillTrigger, warm bool) (*ReplicatedResult, *siteLog, error) {
	opts.fill()
	clk := opts.clock()
	environ := opts.environment()
	pc := replication.PrimaryConfig{
		Mode:                mode,
		Policy:              vm.NewSeededPolicy(opts.PolicySeed, opts.MinQuantum, opts.MaxQuantum),
		FlushEvery:          opts.FlushEvery,
		HeartbeatEvery:      opts.Heartbeat,
		AckTimeout:          opts.AckTimeout,
		DegradeOnBackupLoss: opts.DegradeOnBackupLoss,
		Clock:               opts.Clock,
	}
	var site logSite
	var err error
	switch {
	case warm && opts.Backend == BackendConsensus:
		return nil, nil, fmt.Errorf("%w: BackendConsensus", ErrWarmOption)
	case warm && opts.CaptureLog != "":
		return nil, nil, fmt.Errorf("%w: CaptureLog", ErrWarmOption)
	case warm:
		site, err = opts.pairSite(&pc, opts.recoverConfig(prog, environ))
	case opts.Backend == BackendConsensus:
		site, err = opts.consensusSite(&pc)
	default:
		site, err = opts.pairSite(&pc, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	defer site.close()
	primary, err := replication.NewPrimary(pc)
	if err != nil {
		return nil, nil, err
	}
	machine, err := primary.NewVM(vm.Config{
		Program:         prog,
		Env:             environ,
		GCThreshold:     opts.GCThreshold,
		MaxInstructions: opts.MaxInstructions,
		Dispatch:        opts.Dispatch,
	})
	if err != nil {
		return nil, nil, err
	}

	// Helper goroutines are spawned through the clock and joined via clock
	// Flags so the whole structure also works under an injected virtual
	// clock (bare channel joins would stall simulated time).
	runDone := clock.NewFlag(clk)
	killDone := clock.NewFlag(clk)
	if trigger != nil {
		clk.Go(func() {
			defer killDone.Set()
			for !runDone.IsSet() {
				if trigger(site.logged()) {
					machine.Kill()
					site.kill()
					return
				}
				clk.Sleep(50 * time.Microsecond)
			}
		})
	} else {
		killDone.Set()
	}

	t0 := clk.Now()
	runErr := machine.Run()
	elapsed := clk.Since(t0)
	runDone.Set()
	killDone.Wait()
	log, siteErr := site.wait()

	res := &ReplicatedResult{
		Stats:     machine.Stats(),
		Console:   environ.Console().Lines(),
		Elapsed:   elapsed,
		Env:       environ,
		Primary:   primary.Metrics(),
		Backup:    log.stats,
		Outcome:   log.outcome,
		Killed:    machine.Killed(),
		Consensus: log.consensus,
	}
	if siteErr != nil {
		return res, log, siteErr
	}
	if opts.CaptureLog != "" {
		if cerr := writeCapture(opts.CaptureLog, prog, mode, opts, log.records()); cerr != nil {
			return res, log, fmt.Errorf("capture log: %w", cerr)
		}
	}
	if runErr != nil && !machine.Killed() {
		return res, log, fmt.Errorf("primary run: %w", runErr)
	}
	// The primary may have completed before the trigger fired — including the
	// race where the trigger observes the final record count just as the VM
	// halts and the kill lands on an already-finished machine. The log can
	// only hold a clean halt after the halt marker shipped, which in turn
	// happens only after every output commit succeeded, so a completed
	// outcome wins over the kill flag.
	switch {
	case log.outcome == replication.OutcomePrimaryCompleted, trigger != nil && !machine.Killed():
		return res, log, nil
	case !machine.Killed() || !log.outcome.Failed():
		return res, log, fmt.Errorf("primary killed=%v but the log site observed %v", machine.Killed(), log.outcome)
	case log.warm != nil:
		return res, log, nil
	}

	backup := log.backup
	if backup == nil {
		if backup, err = offlineBackup(mode, log.records()); err != nil {
			return res, log, fmt.Errorf("recovery load: %w", err)
		}
		res.Backup = backup.Stats()
	}
	replay, err := opts.replayAt(backup, prog, environ)
	res.Recovery, res.RecoveryElapsed = replay.Report, replay.Elapsed
	res.Console = environ.Console().Lines()
	return res, log, err
}

// recoverConfig is how every backup of a run replays: the run's program and
// VM limits, under a scheduling policy seeded differently from the primary's
// — only the log makes the two agree.
func (o *Options) recoverConfig(prog *Program, environ *env.Env) *replication.RecoverConfig {
	return &replication.RecoverConfig{
		Program:         prog,
		Env:             environ,
		Policy:          vm.NewSeededPolicy(o.PolicySeed^recoveryPolicyFold, o.MinQuantum, o.MaxQuantum),
		GCThreshold:     o.GCThreshold,
		MaxInstructions: o.MaxInstructions,
		Dispatch:        o.Dispatch,
	}
}

// recoveryPolicyFold derives the recovery policy's seed from the primary's.
const recoveryPolicyFold = 0x5DEECE66D

// offlineBackup stands up a cold backup that holds records and speaks to
// nobody: the replica a committed consensus log, or a captured clean run, is
// replayed at.
func offlineBackup(mode Mode, records []wire.Record) (*replication.Backup, error) {
	backup, err := replication.NewBackup(replication.BackupConfig{Mode: mode})
	if err != nil {
		return nil, err
	}
	return backup, backup.LoadRecords(records)
}

// replayAt recovers at backup against environ and times it.
func (o *Options) replayAt(backup *replication.Backup, prog *Program, environ *env.Env) (*ReplayResult, error) {
	clk := o.clock()
	r0 := clk.Now()
	_, report, err := backup.Recover(*o.recoverConfig(prog, environ))
	return &ReplayResult{Elapsed: clk.Since(r0), Report: report}, err
}

// pairSite is the paper's log site: one backup at the far end of a channel.
// It is cold (it logs, and recovers afterwards if asked) unless warmCfg is
// set, in which case it executes the program under warmCfg as records arrive.
type pairSite struct {
	pEnd  transport.Endpoint
	count func() int
	done  *clock.Flag
	log   siteLog
	err   error
}

// pairSite builds the backup and starts it serving; it waits in Recv until
// the primary exists and speaks.
func (o *Options) pairSite(pc *replication.PrimaryConfig, warmCfg *replication.RecoverConfig) (logSite, error) {
	pEnd, bEnd := o.newPipe()
	pc.Endpoint = pEnd
	s := &pairSite{pEnd: pEnd, done: clock.NewFlag(o.clock())}
	cfg := replication.BackupConfig{Mode: pc.Mode, Endpoint: bEnd, Clock: o.Clock}
	var serve func()
	if warmCfg != nil {
		warm, err := replication.NewWarmBackup(cfg)
		if err != nil {
			return nil, err
		}
		s.count = warm.Logged
		serve = func() {
			var res *replication.WarmResult
			if _, res, s.err = warm.Run(*warmCfg); res != nil {
				s.log.warm, s.log.outcome, s.log.stats = res, res.Outcome, res.Serve
			}
		}
	} else {
		backup, err := replication.NewBackup(cfg)
		if err != nil {
			return nil, err
		}
		s.count = backup.Store().Len
		serve = func() {
			s.log.outcome, s.err = backup.Serve()
			s.log.stats, s.log.records, s.log.backup = backup.Stats(), backup.Store().Records, backup
		}
	}
	o.clock().Go(func() {
		defer s.done.Set()
		serve()
	})
	return s, nil
}

func (s *pairSite) logged() int { return s.count() }
func (s *pairSite) kill()       {}

// close releases a backup still waiting in Recv when the run never started.
func (s *pairSite) close() { _ = s.pEnd.Close() }

func (s *pairSite) wait() (*siteLog, error) {
	s.done.Wait()
	return &s.log, s.err
}

// consensusLeaderWait bounds each leader-election wait in the consensus
// path; generous because on a virtual clock it costs nothing and on the wall
// clock elections settle in tens of milliseconds.
const consensusLeaderWait = 10 * time.Second

// consensusSite stands a 3-replica replicated log where the pair's backup
// channel stood: the VM runs colocated with the elected leader, and a kill
// takes out VM and leader together — the process hosting both fail-stops; the
// survivors must elect and recover.
type consensusSite struct {
	cluster *consensus.Cluster
	leader  *consensus.Replica
	// The kill trigger counts committed records — the consensus analogue of
	// "records the backup has logged" — by walking newly committed entry
	// payloads at the leader (a payload that does not parse counts zero).
	seen  uint64
	count int
}

func (o *Options) consensusSite(pc *replication.PrimaryConfig) (logSite, error) {
	cluster, err := consensus.NewCluster(consensus.Config{
		Seed:         o.ConsensusSeed,
		Clock:        o.Clock,
		PipeCapacity: o.PipeCapacity,
	})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	leader, err := cluster.WaitLeader(consensusLeaderWait)
	if err != nil {
		cluster.Stop()
		return nil, err
	}
	pc.Backend = consensus.NewBackend(leader, pc.AckTimeout)
	return &consensusSite{cluster: cluster, leader: leader}, nil
}

func (s *consensusSite) kill()  { s.cluster.Kill(s.leader.ID()) }
func (s *consensusSite) close() { s.cluster.Stop() }

func (s *consensusSite) logged() int {
	payloads, commit := s.cluster.CommittedPayloads(s.leader.ID(), s.seen)
	s.seen = commit
	for _, p := range payloads {
		n, _ := wire.Count(p)
		s.count += n
	}
	return s.count
}

// wait reads the committed log back from a surviving replica — after a kill
// that means waiting out a fresh election (whose barrier commit fences every
// entry that survived). The outcome is read off the log: completed if it
// holds the clean-halt marker, failed if not.
func (s *consensusSite) wait() (*siteLog, error) {
	log := &siteLog{outcome: replication.OutcomePrimaryFailed}
	for i := 0; i < s.cluster.Size(); i++ {
		log.consensus = append(log.consensus, s.cluster.Replica(i).Snapshot())
	}
	source := s.leader
	if source.Stopped() {
		var err error
		if source, err = s.cluster.WaitLeader(consensusLeaderWait); err != nil {
			return log, fmt.Errorf("consensus failover: %w; replicas at the end of the run: %+v", err, log.consensus)
		}
	}
	recs, err := s.cluster.CommittedRecords(source.ID())
	if err != nil {
		return log, fmt.Errorf("consensus log: %w", err)
	}
	log.stats.RecordsLogged = uint64(len(recs))
	log.records = func() []wire.Record { return recs }
	for _, r := range recs {
		if _, ok := r.(*wire.Halt); ok {
			log.outcome = replication.OutcomePrimaryCompleted
		}
	}
	return log, nil
}

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
	res, log, err := run(prog, mode, opts, nil, false)
	if err != nil {
		return res, nil, err
	}
	backup, err := offlineBackup(mode, log.records())
	if err != nil {
		return res, nil, err
	}
	replay, err := opts.replayAt(backup, prog, envFactory())
	return res, replay, err
}

// writeCapture writes an .ftlog capture of a replicated run. The header's
// policy seed is the recovery policy seed (the fold the backup's replay
// uses), so a debugger opening the capture replays with exactly the
// scheduling the recovered backup would have used.
func writeCapture(path string, prog *Program, mode Mode, opts Options, records []wire.Record) error {
	return replication.WriteLogFile(path, replication.LogHeader{
		EnvSeed:         opts.EnvSeed,
		PolicySeed:      opts.PolicySeed ^ recoveryPolicyFold,
		MinQuantum:      opts.MinQuantum,
		MaxQuantum:      opts.MaxQuantum,
		Mode:            mode,
		Dispatch:        opts.Dispatch,
		MaxInstructions: opts.MaxInstructions,
		GCThreshold:     int64(opts.GCThreshold),
	}, prog, records)
}

// Natives returns the standard native registry (for inspection/extension).
func Natives() *native.Registry { return native.StdLib() }

// Handlers returns the default side-effect handler set.
func Handlers() *sehandler.Set { return sehandler.DefaultSet() }
