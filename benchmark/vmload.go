package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	ftvm "repro"
	"repro/internal/bytecode"
	"repro/internal/consensus"
	"repro/internal/env"
	"repro/internal/programs"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Scheduling quanta of every VM the benchmark builds itself; the same
// values ftvm.Options defaults to, so assembled and facade runs agree.
const (
	minQuantum = 1024
	maxQuantum = 8192
	// recoveryPolicyFold is the fold ftvm applies to the policy seed of a
	// recovering backup, whose scheduling must differ from the primary's.
	recoveryPolicyFold = 0x5DEECE66D
	pipeCapacity       = 1024
)

// vmRun is one VM workload bound to a seed. The seed is the only source of
// the environment, scheduling-policy and consensus seeds.
type vmRun struct {
	spec vmSpec
	seed int64
	// oracle, built once before anything is timed.
	prog    *bytecode.Program // the decoded image every timed phase runs
	image   []byte
	console []string // unreplicated reference console
	stats   vm.Stats // unreplicated reference counters
	log     []wire.Record
	half    int // records in the fixed recovery prefix
	// recovered holds, by prefix length, the counters of the first recovery
	// from that prefix.
	recovered map[int]vm.Stats
	// leadershipsLost counts the consensus-backed runs made again because
	// the leader was deposed mid-run (see withQuorum).
	leadershipsLost int
}

func (w *vmRun) options() ftvm.Options {
	return ftvm.Options{
		EnvSeed:       w.seed,
		PolicySeed:    w.seed,
		ConsensusSeed: uint64(w.seed),
		Backend:       w.spec.backend,
	}
}

// logHeader describes the captured log the way ftvm's capture does: the
// policy seed is the recovering backup's.
func (w *vmRun) logHeader() replication.LogHeader {
	return replication.LogHeader{
		EnvSeed:    w.seed,
		PolicySeed: w.seed ^ recoveryPolicyFold,
		MinQuantum: minQuantum,
		MaxQuantum: maxQuantum,
		Mode:       w.spec.mode,
	}
}

func (w *vmRun) multiThreaded() bool {
	b, err := programs.ByName(w.spec.program)
	return err == nil && b.MultiThreaded
}

// sameConsole compares a run's console with the reference. A run that
// rescheduled threads differently from the reference (recovery continues
// live under its own policy) is still a correct execution of a
// multi-threaded program, but mtrt's workers take rows in a different order
// and each line names the worker that rendered it; such consoles are
// compared as multisets of lines with that attribution cut off.
func (w *vmRun) sameConsole(got []string, sameSchedule bool) error {
	want := w.console
	if !sameSchedule && w.multiThreaded() {
		got, want = scheduleInsensitive(got), scheduleInsensitive(want)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("console differs from the oracle (%d lines, want %d)", len(got), len(want))
	}
	return nil
}

func scheduleInsensitive(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i], _, _ = strings.Cut(l, " by ")
	}
	slices.Sort(out)
	return out
}

// sameCounts checks a run's counters against the reference run's. They are
// pure functions of (program, seeds, schedule), so a run on the reference's
// schedule must reproduce them exactly.
func (w *vmRun) sameCounts(got vm.Stats) error { return sameCounts(got, w.stats) }

func sameCounts(got, want vm.Stats) error {
	if got.Instructions != want.Instructions || got.Branches != want.Branches ||
		got.NMIntercepted != want.NMIntercepted || got.NMOutputCommits != want.NMOutputCommits {
		return fmt.Errorf("nondeterministic counts: instructions %d/%d branches %d/%d intercepted %d/%d commits %d/%d",
			got.Instructions, want.Instructions, got.Branches, want.Branches,
			got.NMIntercepted, want.NMIntercepted, got.NMOutputCommits, want.NMOutputCommits)
	}
	return nil
}

// coldStarted is what one cold start produced and how long its run took.
type coldStarted struct {
	prog  *bytecode.Program
	image []byte
	res   *ftvm.Result
	runS  float64
}

// coldStart goes from source text to a first result: compile, encode the
// image, decode it (verify + predecode), run. It is one set-up pass, and its
// stages are the set-up layers of the traced run.
func (w *vmRun) coldStart(tr *tracer, parent, iteration int) (*coldStarted, error) {
	bench, err := programs.ByName(w.spec.program)
	if err != nil {
		return nil, err
	}
	source := bench.Source(w.spec.scale)
	var out coldStarted
	var compiled *bytecode.Program
	var image bytes.Buffer
	if err := tr.in("minilang.compile", parent, iteration, func(int) (err error) {
		compiled, err = ftvm.CompileSource(w.spec.program, source)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.in("bytecode.encode", parent, iteration, func(int) error {
		return ftvm.EncodeProgram(&image, compiled)
	}); err != nil {
		return nil, err
	}
	out.image = slices.Clone(image.Bytes())
	if err := tr.in("bytecode.decode", parent, iteration, func(int) (err error) {
		out.prog, err = ftvm.DecodeProgram(&image)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.in("vm.run_untracked", parent, iteration, func(int) (err error) {
		out.runS, err = seconds(func() (err error) {
			out.res, err = ftvm.Run(out.prog, w.options())
			return err
		})
		return err
	}); err != nil {
		return nil, err
	}
	return &out, nil
}

// buildOracle makes the reference everything later is compared with: the
// unreplicated console and counters, and the record stream of one
// failure-free replicated run, whose first half is the fixed recovery prefix.
func (w *vmRun) buildOracle() error {
	cold, err := w.coldStart(nil, -1, 0)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	w.prog, w.image, w.console, w.stats = cold.prog, cold.image, cold.res.Console, cold.res.Stats
	run, err := w.assembled(nil, -1, 0)
	if err != nil {
		return fmt.Errorf("oracle capture: %w", err)
	}
	if err := w.sameConsole(run.console, true); err != nil {
		return fmt.Errorf("oracle capture: %w", err)
	}
	w.log = run.records
	if n := len(w.log); n > 0 {
		if _, halted := w.log[n-1].(*wire.Halt); halted {
			w.log = w.log[:n-1]
		}
	}
	w.half = len(w.log) / 2
	w.recovered = make(map[int]vm.Stats)
	return nil
}

// baseline is Figure 2's denominator: the unreplicated run.
func (w *vmRun) baseline(dispatch ftvm.Dispatch) (*ftvm.Result, error) {
	opts := w.options()
	opts.Dispatch = dispatch
	res, err := ftvm.Run(w.prog, opts)
	if err != nil {
		return nil, err
	}
	if err := w.sameConsole(res.Console, true); err != nil {
		return res, err
	}
	return res, w.sameCounts(res.Stats)
}

// service is Figure 2's primary bar: the whole failure-free replicated run,
// which returns only when the backup (or a majority) holds the full log.
func (w *vmRun) service() (*ftvm.ReplicatedResult, error) {
	var res *ftvm.ReplicatedResult
	err := w.withQuorum(func() (err error) {
		res, err = ftvm.RunReplicated(w.prog, w.spec.mode, w.options())
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := w.sameConsole(res.Console, true); err != nil {
		return res, err
	}
	if err := w.sameCounts(res.Stats); err != nil {
		return res, err
	}
	if int(res.Backup.RecordsLogged) != len(w.log)+1 {
		return res, fmt.Errorf("nondeterministic log: %d records, capture has %d", res.Backup.RecordsLogged, len(w.log)+1)
	}
	return res, nil
}

// quorumAttempts bounds how often a consensus-backed run is made again after
// its leader was deposed mid-run.
const quorumAttempts = 3

// withQuorum runs fn, and on the consensus workload runs it again when the
// primary lost its quorum. The replicas' election timeouts are 15-30 ms of
// wall clock; on a shared two-core box the host sometimes holds the leader
// off the processor for longer, a follower stands for election, and the
// run aborts with ErrBackupLost. That is the environment, not a wrong
// output, so it is counted and printed (leaderships lost) and the iteration
// repeated; its sample carries the lost attempt's time, which the best-of-N
// report then ignores.
func (w *vmRun) withQuorum(fn func() error) error {
	err := fn()
	for try := 1; try < quorumAttempts && w.spec.backend == ftvm.BackendConsensus && quorumLost(err); try++ {
		w.leadershipsLost++
		err = fn()
	}
	return err
}

func quorumLost(err error) bool {
	return errors.Is(err, ftvm.ErrBackupLost) || errors.Is(err, consensus.ErrLeadershipLost) || errors.Is(err, consensus.ErrNotLeader)
}

// noteLeaderships states how often withQuorum had to repeat a run.
func (w *vmRun) noteLeaderships(rep *report) {
	if w.leadershipsLost > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d consensus-backed runs were made again after the leader was deposed mid-run", w.leadershipsLost))
	}
}

// offlineEndpoint stands where a replaying backup's link would be: nothing
// to receive, nowhere to send.
type offlineEndpoint struct{}

func (offlineEndpoint) Send([]byte) error                  { return nil }
func (offlineEndpoint) Recv(time.Duration) ([]byte, error) { return nil, transport.ErrClosed }
func (offlineEndpoint) Close() error                       { return nil }

// recovery is what recoverFrom measured and saw.
type recovery struct {
	loadS, replayS float64
	report         *replication.RecoveryReport
}

// recoverFrom is the time without service: a cold backup loads a fixed
// prefix of the captured log and re-executes the program to completion over
// a fresh environment, gated by the log and live past its end. A fixed
// prefix makes every iteration replay identical work, which a polled live
// kill does not.
func (w *vmRun) recoverFrom(prefix []wire.Record, tr *tracer, parent, iteration int) (*recovery, error) {
	var out recovery
	var backup *replication.Backup
	environ := env.New(w.seed)
	var err error
	out.loadS, err = seconds(func() error {
		return tr.in("replication.backup_load", parent, iteration, func(int) (err error) {
			backup, err = replication.NewBackup(replication.BackupConfig{Mode: w.spec.mode, Endpoint: offlineEndpoint{}})
			if err != nil {
				return err
			}
			return backup.LoadRecords(prefix)
		})
	})
	if err != nil {
		return nil, err
	}
	out.replayS, err = seconds(func() error {
		return tr.in("replication.recover", parent, iteration, func(int) (err error) {
			_, out.report, err = backup.Recover(replication.RecoverConfig{
				Program: w.prog,
				Env:     environ,
				Policy:  vm.NewSeededPolicy(w.seed^recoveryPolicyFold, minQuantum, maxQuantum),
			})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if err := w.sameConsole(environ.Console().Lines(), false); err != nil {
		return &out, err
	}
	// Past the prefix a multi-threaded program continues on the recovery
	// policy's schedule, so its counters may differ from the reference's;
	// they must still repeat from one recovery of this prefix to the next.
	want, seen := w.recovered[len(prefix)]
	if !seen {
		want = out.report.VMStats
		if !w.multiThreaded() {
			want = w.stats
		}
		w.recovered[len(prefix)] = want
	}
	return &out, sameCounts(out.report.VMStats, want)
}

// assembledRun is one replicated run put together by the benchmark from the
// public pieces ftvm.RunReplicated uses, so that the backend and the link
// can be decorated.
type assembledRun struct {
	console     []string
	records     []wire.Record
	ships       uint64
	msgs, bytes uint64
	elections   uint64
	totalS      float64
}

// assembled runs the workload's replication stack with a span at every call
// from one layer into the next. With a nil tracer it is the capture run.
func (w *vmRun) assembled(tr *tracer, parent, iteration int) (*assembledRun, error) {
	var out assembledRun
	err := w.withQuorum(func() (err error) {
		out = assembledRun{}
		out.totalS, err = seconds(func() error {
			return tr.in("service.traced", parent, iteration, func(root int) error {
				return w.assembledInto(&out, tr, root, iteration)
			})
		})
		return err
	})
	return &out, err
}

func (w *vmRun) assembledInto(out *assembledRun, tr *tracer, root, iteration int) error {
	var msgs, sent atomic.Uint64
	backend := &tracedBackend{tr: tr, parent: root, cur: root, iteration: iteration}
	link := tracedEndpoint{tr: tr, iteration: iteration, msgs: &msgs, bytes: &sent}

	var collect func() ([]wire.Record, error)
	switch w.spec.backend {
	case ftvm.BackendPair:
		pEnd, bEnd := transport.Pipe(pipeCapacity)
		defer pEnd.Close() // releases the serving backup on every path
		link.Endpoint, link.waitRecv = pEnd, true
		link.parent = func() int { return backend.cur }
		pair, err := replication.NewPairBackend(replication.PairBackendConfig{Endpoint: &link})
		if err != nil {
			return err
		}
		backend.CoordinationBackend = pair
		backup, err := replication.NewBackup(replication.BackupConfig{Mode: w.spec.mode, Endpoint: bEnd})
		if err != nil {
			return err
		}
		served := make(chan error, 1)
		go func() {
			outcome, err := backup.Serve()
			if err == nil && outcome != replication.OutcomePrimaryCompleted {
				err = fmt.Errorf("backup observed %v", outcome)
			}
			served <- err
		}()
		collect = func() ([]wire.Record, error) {
			if err := <-served; err != nil {
				return nil, err
			}
			return backup.Store().Records(), nil
		}
	case ftvm.BackendConsensus:
		link.parent = func() int { return root }
		cluster, err := consensus.NewCluster(consensus.Config{
			Seed: uint64(w.seed),
			Link: func(i, j int) (transport.Endpoint, transport.Endpoint) {
				a, b := link, link
				a.Endpoint, b.Endpoint = transport.Pipe(pipeCapacity)
				return &a, &b
			},
		})
		if err != nil {
			return err
		}
		cluster.Start()
		defer cluster.Stop()
		var leader *consensus.Replica
		if err := tr.in("consensus.elect", root, iteration, func(int) (err error) {
			leader, err = cluster.WaitLeader(10 * time.Second)
			return err
		}); err != nil {
			return err
		}
		backend.CoordinationBackend = consensus.NewBackend(leader, 0)
		collect = func() ([]wire.Record, error) {
			for i := 0; i < cluster.Size(); i++ {
				out.elections += cluster.Replica(i).Snapshot().Elections
			}
			return cluster.CommittedRecords(leader.ID())
		}
	}

	primary, err := replication.NewPrimary(replication.PrimaryConfig{
		Mode:    w.spec.mode,
		Backend: backend,
		Policy:  vm.NewSeededPolicy(w.seed, minQuantum, maxQuantum),
	})
	if err != nil {
		return err
	}
	environ := env.New(w.seed)
	var machine *vm.VM
	if err := tr.in("vm.new", root, iteration, func(int) (err error) {
		machine, err = vm.New(vm.Config{
			Program:       w.prog,
			Env:           environ,
			Coordinator:   primary,
			TrackProgress: w.spec.mode == replication.ModeSched,
		})
		return err
	}); err != nil {
		return err
	}
	if err := tr.in("vm.run_replicated", root, iteration, func(run int) error {
		backend.parent, backend.cur = run, run
		return machine.Run()
	}); err != nil {
		return err
	}
	if out.records, err = collect(); err != nil {
		return err
	}
	out.console = environ.Console().Lines()
	out.ships, out.msgs, out.bytes = backend.ships, msgs.Load(), sent.Load()
	return nil
}
