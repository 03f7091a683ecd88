package main

import (
	"fmt"
	"slices"
	"strings"

	ftvm "repro"
	"repro/internal/env"
	"repro/internal/fleet"
	"repro/internal/replication"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The paper's link, as arithmetic on exact counts instead of a spin-wait:
// every frame and its acknowledgement pay linkPerMsgS, every KiB linkPerKBS.
const (
	linkPerMsgS = 150e-6
	linkPerKBS  = 450e-6
)

// zeroLayers records 0 for every per-layer metric whose name starts with one
// of the prefixes: the layers this workload never enters.
func zeroLayers(rep *report, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if _, have := rep.values[m.name]; !have && strings.HasPrefix(m.name, p) {
				rep.set(m.name, 0)
			}
		}
	}
}

// fromSpans turns the per-iteration totals of a span name into a metric; a
// span that never occurred took no time.
func fromSpans(rep *report, totals map[string]*spanTotals, metric, spanName string) {
	rep.set(metric, 0)
	if tot := totals[spanName]; tot != nil {
		rep.values[metric] = tot.perIteration()
	}
}

// trackedStandalone runs the program alone on a VM that publishes progress
// indicators after every bytecode, as every ModeSched replica must, with the
// default coordinator and no replication.
func (w *vmRun) trackedStandalone() error {
	environ := env.New(w.seed)
	machine, err := vm.New(vm.Config{
		Program:       w.prog,
		Env:           environ,
		Coordinator:   vm.NewDefaultCoordinator(vm.NewSeededPolicy(w.seed, minQuantum, maxQuantum)),
		TrackProgress: true,
	})
	if err != nil {
		return err
	}
	if err := machine.Run(); err != nil {
		return err
	}
	if err := w.sameConsole(environ.Console().Lines(), true); err != nil {
		return err
	}
	return w.sameCounts(machine.Stats())
}

// liveFailover kills a live primary once the backup holds half the log and
// lets the backup finish the program; the recovered console must equal the
// reference. The kill is polled, so the run is checked and never timed.
func (w *vmRun) liveFailover() error {
	var res *ftvm.ReplicatedResult
	err := w.withQuorum(func() (err error) {
		res, err = ftvm.RunWithFailover(w.prog, w.spec.mode, ftvm.KillAfterRecords(w.half), w.options())
		return err
	})
	if err != nil {
		return err
	}
	if !res.Killed {
		return fmt.Errorf("primary finished before the kill at %d records", w.half)
	}
	return w.sameConsole(res.Console, false)
}

// traceVM is the traced run of a VM workload: every phase again, this time
// with the replication stack assembled by the benchmark and a span around
// each call into a layer, plus the micro measurements of the layers the
// workload passes through. Its numbers explain the end-to-end ones; they are
// never reported as end-to-end themselves.
func traceVM(w workload, cfg runConfig) (*report, *tracer, error) {
	rep := newReport(w.name)
	tr := newTracer()
	run := &vmRun{spec: *w.vm, seed: int64(cfg.seed)}
	if err := run.buildOracle(); err != nil {
		return nil, nil, err
	}
	if cfg.corruptOracle {
		run.console[0] += " (corrupted)"
	}
	instr := float64(run.stats.Instructions)
	sched := run.spec.mode == replication.ModeSched

	var serviceS, tracedS, baselineS, replayS samples
	var last *ftvm.ReplicatedResult
	for i := 0; i < cfg.iters; i++ {
		root := tr.begin("iteration", -1, i)

		var cold *coldStarted
		err := tr.in("setup", root, i, func(id int) (err error) {
			if cold, err = run.coldStart(tr, id, i); err != nil {
				return err
			}
			return run.sameConsole(cold.res.Console, true)
		})
		if rep.op("setup", err) {
			baselineS = append(baselineS, cold.runS)
		}

		s, err := seconds(func() error {
			return tr.in("vm.run_tracked", root, i, func(int) error { return run.trackedStandalone() })
		})
		if rep.op("tracked standalone", err) {
			rep.add("vm.tracked_ns_per_instr", s*1e9/instr)
		}

		s, err = seconds(func() error {
			return tr.in("service.untraced", root, i, func(int) (err error) {
				last, err = run.service()
				return err
			})
		})
		if rep.op("service", err) {
			serviceS = append(serviceS, s)
			m := last.Primary
			rep.add("replication.record_s", m.Record.Seconds())
			rep.add("replication.comm_s", m.Communication.Seconds())
			rep.add("replication.commit_wait_s", m.Pessimism.Seconds())
		}

		traced, err := run.assembled(tr, root, i)
		if err == nil {
			err = run.sameConsole(traced.console, true)
		}
		if rep.op("traced service", err) {
			tracedS = append(tracedS, traced.totalS)
			rep.add("transport.msgs", float64(traced.msgs))
			rep.add("transport.bytes", float64(traced.bytes))
			rep.set("backend.ships", float64(traced.ships))
			if run.spec.backend == ftvm.BackendConsensus {
				rep.add("consensus.elections", float64(traced.elections))
			}
		}

		var rec *recovery
		err = tr.in("replay.full", root, i, func(id int) (err error) {
			rec, err = run.recoverFrom(run.log, tr, id, i)
			return err
		})
		if rep.op("full replay", err) {
			replayS = append(replayS, rec.replayS)
			rep.add("replication.backup_load_s", rec.loadS)
			rep.set("replication.gated_wakeups", float64(rec.report.GatedWakeups))
			rep.set("replication.replayed_switches", float64(rec.report.ReplayedSwitches))
			rep.set("replication.fed_results", float64(rec.report.FedResults))
		}
		tr.end(root)
	}
	if rep.failed > 0 {
		return rep, tr, nil
	}

	totals := tr.totals()
	fromSpans(rep, totals, "minilang.compile_s", "minilang.compile")
	fromSpans(rep, totals, "bytecode.encode_s", "bytecode.encode")
	fromSpans(rep, totals, "bytecode.decode_s", "bytecode.decode")
	fromSpans(rep, totals, "vm.new_s", "vm.new")
	fromSpans(rep, totals, "backend.ship_s", "backend.ship")
	fromSpans(rep, totals, "backend.commit_ship_s", "backend.commit_ship")
	fromSpans(rep, totals, "transport.send_s", "transport.send")
	fromSpans(rep, totals, "transport.recv_wait_s", "transport.recv_wait")
	rep.values["replication.full_replay_s"] = replayS
	for _, s := range baselineS {
		rep.add("vm.untracked_ns_per_instr", s*1e9/instr)
	}

	rep.set("bytecode.image_bytes", float64(len(run.image)))
	rep.set("vm.instructions", instr)
	rep.set("vm.branches", float64(run.stats.Branches))
	rep.set("vm.reschedules", float64(run.stats.Reschedules))
	rep.set("heap.gcs", float64(run.stats.GCs))
	rep.set("native.intercepted", float64(run.stats.NMIntercepted))
	rep.set("native.output_commits", float64(run.stats.NMOutputCommits))
	m := last.Primary
	rep.set("replication.records", float64(m.RecordsLogged))
	rep.set("replication.frames", float64(m.FramesSent))
	rep.set("replication.bytes", float64(m.BytesSent))
	rep.set("replication.acks_awaited", float64(m.AcksAwaited))
	rep.set("replication.bytes_per_record", float64(m.BytesSent)/float64(m.RecordsLogged))
	rep.set("replication.records_per_frame", float64(m.RecordsLogged)/float64(m.FramesSent))

	// What replication adds on top of running the same interpreter path
	// alone: the tracked one under ModeSched, the untracked one under
	// ModeLock.
	standalone := baselineS.best(false)
	if sched {
		standalone = rep.values["vm.tracked_ns_per_instr"].best(false) * instr / 1e9
	}
	service, baseline := serviceS.best(false), baselineS.best(false)
	rep.set("replication.primary_overhead_s", service-standalone)
	rep.set("fig2.primary_x", service/baseline)
	rep.set("fig2.backup_x", replayS.best(false)/baseline)
	link := 2*float64(m.FramesSent)*linkPerMsgS + float64(m.BytesSent)/1024*linkPerKBS
	rep.set("fig2.link_model_x", (service+link)/baseline)
	rep.set("trace.overhead_frac", tracedS.best(false)/service-1)

	once := tr.begin("once", -1, cfg.iters)
	defer tr.end(once)
	s, err := seconds(func() error {
		return tr.in("vm.run_switch", once, cfg.iters, func(int) error {
			_, err := run.baseline(ftvm.DispatchSwitch)
			return err
		})
	})
	if rep.op("switch dispatch", err) {
		rep.set("vm.switch_ns_per_instr", s*1e9/instr)
	}

	rep.set("replication.live_failover_ok", 0)
	if rep.op("live failover", tr.in("failover.live", once, cfg.iters, func(int) error { return run.liveFailover() })) {
		rep.set("replication.live_failover_ok", 1)
	}

	var encoded []byte
	s, err = seconds(func() (err error) {
		encoded, err = replication.EncodeLog(run.logHeader(), run.prog, run.log)
		return err
	})
	if rep.op("ftlog encode", err) {
		rep.set("replication.ftlog_encode_s", s)
		rep.set("replication.ftlog_bytes", float64(len(encoded)))
		var decoded *replication.Log
		s, err = seconds(func() (err error) {
			decoded, err = replication.DecodeLog(encoded)
			return err
		})
		if err == nil && !sameRecords(decoded.Records, run.log) {
			err = fmt.Errorf("decoded capture differs from the log")
		}
		if rep.op("ftlog decode", err) {
			rep.set("replication.ftlog_decode_s", s)
		}
	}

	rep.op("wire micro", microWire(rep, run.log, cfg.quick))
	rep.op("heap micro", microHeap(rep, cfg.quick))
	rep.op("transport micro", microTransport(rep, cfg.quick))
	if run.spec.backend == ftvm.BackendConsensus {
		rep.op("consensus micro", run.withQuorum(func() error { return microConsensus(rep, cfg.seed, cfg.quick) }))
	}
	if run.spec.debugSeek {
		rep.op("debug micro", microDebug(rep, run))
	}
	zeroLayers(rep, "consensus.", "debug.", "fleet.", "loadgen.")
	run.noteLeaderships(rep)
	return rep, tr, nil
}

// sameRecords compares two record streams by their encoding.
func sameRecords(a, b []wire.Record) bool {
	var ea, eb wire.Buffer
	for _, r := range a {
		if ea.Append(r) != nil {
			return false
		}
	}
	for _, r := range b {
		if eb.Append(r) != nil {
			return false
		}
	}
	return slices.Equal(ea.Bytes(), eb.Bytes())
}

// traceFleet is the traced run of the fleet workload. The fleet and its load
// generator are one call from outside, so the layers are told apart by
// running them separately: Fleet.Submit alone, the whole run, the difference.
func traceFleet(w workload, cfg runConfig) (*report, *tracer, error) {
	rep := newReport(w.name)
	tr := newTracer()
	run := &fleetRun{spec: *w.fleet, seed: cfg.seed}
	if err := run.buildOracle(cfg.corruptOracle); err != nil {
		return nil, nil, err
	}
	requests := float64(run.spec.clients * run.spec.opsPerClient)

	for i := 0; i < cfg.iters; i++ {
		root := tr.begin("iteration", -1, i)
		s, err := seconds(func() error {
			return tr.in("loadgen.run_killed", root, i, func(int) error {
				_, err := run.service(fleet.BackendPair)
				return err
			})
		})
		if rep.op("service", err) {
			rep.add("fleet.wall_ns_per_request", s*1e9/requests)
		}

		var sim *simulation
		var obs []fleet.Observation
		err = tr.in("loadgen.run_fault_free", root, i, func(int) (err error) {
			sim, obs, err = run.baseline()
			return err
		})
		if rep.op("baseline", err) {
			var killS, verifyS float64
			err = tr.in("fleet.drain", root, i, func(int) (err error) {
				killS, err = run.drain(sim)
				return err
			})
			if err == nil {
				err = tr.in("fleet.verify", root, i, func(int) (err error) {
					verifyS, err = seconds(func() error { return sim.fleet.Verify(obs) })
					return err
				})
			}
			sim.done()
			if rep.op("recover", err) {
				rep.add("fleet.kill_wall_s", killS)
				rep.add("fleet.verify_s", verifyS)
			}
		}
		tr.end(root)
	}
	if rep.failed > 0 {
		return rep, tr, nil
	}

	st := run.want
	rep.set("fleet.requests", float64(st.Requests))
	rep.set("fleet.executed", float64(st.Fleet.Executed))
	rep.set("fleet.retries", float64(st.Retries))
	rep.set("fleet.dup_hits", float64(st.Fleet.DupHits))
	rep.set("fleet.resent", float64(st.Fleet.Resent))
	rep.set("fleet.promotions", float64(st.Fleet.Promotions))
	rep.set("fleet.transfers", float64(st.Fleet.Transfers))
	rep.set("fleet.p50_virtual_us", float64(st.P50.Nanoseconds())/1e3)
	rep.set("fleet.p99_virtual_us", float64(st.P99.Nanoseconds())/1e3)
	rep.set("fleet.blast_radius", st.BlastRadius)
	rep.set("fleet.throughput_virtual_ops_s", st.Throughput)

	once := tr.begin("once", -1, cfg.iters)
	defer tr.end(once)
	var submitNS float64
	err := tr.in("fleet.submit_loop", once, cfg.iters, func(int) (err error) {
		submitNS, err = run.submitLoop(run.spec.submitOps)
		return err
	})
	if rep.op("submit loop", err) {
		rep.set("fleet.submit_ns", submitNS)
		rep.set("loadgen.wall_ns_per_request", rep.values["fleet.wall_ns_per_request"].best(false)-submitNS)
	}
	s, err := seconds(func() error {
		return tr.in("loadgen.run_killed_quorum", once, cfg.iters, func(int) error {
			_, err := run.service(fleet.BackendQuorum)
			return err
		})
	})
	if rep.op("quorum service", err) {
		rep.set("fleet.quorum_wall_ns_per_request", s*1e9/requests)
	}

	// No VM instruction runs and nothing is decorated: every other layer,
	// and the tracing overhead, is 0 on this workload.
	zeroLayers(rep, "minilang.", "bytecode.", "vm.", "heap.", "native.", "replication.", "backend.",
		"transport.", "wire.", "consensus.", "debug.", "fig2.", "trace.")
	return rep, tr, nil
}
