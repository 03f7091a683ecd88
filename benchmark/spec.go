package main

import (
	"time"

	ftvm "repro"
	"repro/internal/replication"
)

// vmSpec freezes one VM workload: programs.Compile(program, scale) under
// mode, replicated through backend over a raw in-process pipe (no injected
// link delay).
type vmSpec struct {
	program string
	scale   int
	mode    replication.Mode
	backend ftvm.BackendKind
	// debugSeek adds the time-travel debugger's seek over this workload's
	// capture to the traced run.
	debugSeek bool
}

// fleetSpec freezes the fleet workload. The injected delays are the
// fleet.Config defaults, on the virtual clock: 200 µs client<->node, 100 µs
// primary<->backup, 10 µs per operation.
type fleetSpec struct {
	clients      int // sessions in a timed run
	setupClients int // sessions in a set-up pass
	opsPerClient int
	nodes        int
	shards       int
	window       time.Duration // virtual arrival window
	victim       string        // node killed mid-window in the service phase
	killAt       time.Duration
	// drain is the failover sequence of the recover phase: these nodes are
	// failed one after another on a fleet that has served the whole load.
	drain []string
	// submitOps sizes the direct Fleet.Submit loop of the traced run.
	submitOps int
}

// workload is one row of BENCHMARK.json's workloads, with the frozen
// configuration its `why` summarises. Exactly one of vm and fleet is set.
type workload struct {
	name  string
	vm    *vmSpec
	fleet *fleetSpec
}

var workloads = []workload{
	{
		name: "compress-sched",
		vm:   &vmSpec{program: "compress", scale: 1, mode: replication.ModeSched, backend: ftvm.BackendPair, debugSeek: true},
	},
	{
		name: "db-lock",
		vm:   &vmSpec{program: "db", scale: 1, mode: replication.ModeLock, backend: ftvm.BackendPair},
	},
	{
		name: "mtrt-sched-consensus",
		vm:   &vmSpec{program: "mtrt", scale: 2, mode: replication.ModeSched, backend: ftvm.BackendConsensus},
	},
	{
		name: "fleet-kill",
		fleet: &fleetSpec{
			clients: 100_000, setupClients: 50_000, opsPerClient: 2,
			nodes: 8, shards: 32,
			window: 2 * time.Second, victim: "n2", killAt: 800 * time.Millisecond,
			drain:     []string{"n2", "n3", "n4", "n5", "n6", "n7"},
			submitOps: 100_000,
		},
	},
}

// quick shrinks a workload to the smallest configuration that still passes
// through every layer; the smoke test runs it.
func (w workload) quick() workload {
	if w.vm != nil {
		v := *w.vm
		v.scale = 1
		w.vm = &v
	}
	if w.fleet != nil {
		f := *w.fleet
		f.clients, f.setupClients, f.submitOps = 4000, 2000, 4000
		w.fleet = &f
	}
	return w
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rounds turns the measurement budget into a fixed number of timed rounds:
// the scales are frozen so that one round of a workload's four phases takes
// about 1.7 s on the 2-core reference box, and six rounds are made for every
// 10 s asked for. The count is never a deadline, so a given -seconds always
// means the same work on every commit. Many short samples rather than few
// long ones: a run reports its best sample (see samples.best), and a short
// sample is likelier to fit into a stretch the host leaves alone.
func rounds(seconds int) int { return max(3, seconds*6/10) }

// traceIterations is how many times the traced run repeats each phase.
const traceIterations = 5

// metric is one row of BENCHMARK.json's end_to_end or per_layer. exact marks
// a per-layer count that is a pure function of (configuration, seed).
type metric struct {
	name, unit string
	bound      float64 // end to end only
	exact      bool
	higher     bool // higher is better; lower is for every other metric
}

// endToEnd is what a user of the system sees; lower is better for all. The
// driver's contract wants every one of them from every workload, so each has
// a definition on the fleet as well (see README.md).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "baseline_s", unit: "s", bound: 0.25},
	{name: "service_s", unit: "s", bound: 0.25},
	{name: "recover_s", unit: "s", bound: 0.25},
	{name: "alloc_mb", unit: "MB", bound: 0.10},
}

// perLayer is what the traced run reports. A layer a workload never enters
// reports 0 there: every VM layer on fleet-kill, every fleet layer on the VM
// workloads, consensus.* off mtrt-sched-consensus, debug.* off compress-sched.
var perLayer = []metric{
	{name: "minilang.compile_s", unit: "s"},
	{name: "bytecode.encode_s", unit: "s"},
	{name: "bytecode.decode_s", unit: "s"},
	{name: "bytecode.image_bytes", unit: "bytes", exact: true},
	{name: "vm.new_s", unit: "s"},
	{name: "vm.instructions", unit: "count", exact: true},
	{name: "vm.branches", unit: "count", exact: true},
	{name: "vm.reschedules", unit: "count", exact: true},
	{name: "vm.untracked_ns_per_instr", unit: "ns"},
	{name: "vm.tracked_ns_per_instr", unit: "ns"},
	{name: "vm.switch_ns_per_instr", unit: "ns"},
	{name: "heap.alloc_ns_per_obj", unit: "ns"},
	{name: "heap.gc_ns_per_live_obj", unit: "ns"},
	{name: "heap.gcs", unit: "count", exact: true},
	{name: "native.intercepted", unit: "count", exact: true},
	{name: "native.output_commits", unit: "count", exact: true},
	{name: "replication.records", unit: "count", exact: true},
	{name: "replication.frames", unit: "count", exact: true},
	{name: "replication.bytes", unit: "bytes", exact: true},
	{name: "replication.acks_awaited", unit: "count", exact: true},
	{name: "replication.bytes_per_record", unit: "bytes", exact: true},
	{name: "replication.records_per_frame", unit: "count", exact: true, higher: true},
	{name: "replication.record_s", unit: "s"},
	{name: "replication.comm_s", unit: "s"},
	{name: "replication.commit_wait_s", unit: "s"},
	{name: "replication.primary_overhead_s", unit: "s"},
	{name: "backend.ship_s", unit: "s"},
	{name: "backend.commit_ship_s", unit: "s"},
	{name: "backend.ships", unit: "count", exact: true},
	{name: "transport.send_s", unit: "s"},
	{name: "transport.recv_wait_s", unit: "s"},
	{name: "transport.msgs", unit: "count"},
	{name: "transport.bytes", unit: "bytes"},
	{name: "transport.pipe_rtt_us", unit: "us"},
	{name: "transport.pipe_mb_s", unit: "MB/s", higher: true},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "wire.encode_ns_per_record", unit: "ns"},
	{name: "wire.decode_ns_per_record", unit: "ns"},
	{name: "wire.frame_ns", unit: "ns"},
	{name: "replication.backup_load_s", unit: "s"},
	{name: "replication.full_replay_s", unit: "s"},
	{name: "replication.gated_wakeups", unit: "count", exact: true},
	{name: "replication.replayed_switches", unit: "count", exact: true},
	{name: "replication.fed_results", unit: "count", exact: true},
	{name: "replication.ftlog_encode_s", unit: "s"},
	{name: "replication.ftlog_decode_s", unit: "s"},
	{name: "replication.ftlog_bytes", unit: "bytes", exact: true},
	{name: "replication.live_failover_ok", unit: "flag", higher: true},
	{name: "consensus.elect_s", unit: "s"},
	{name: "consensus.commit_rtt_us", unit: "us"},
	{name: "consensus.propose_mb_s", unit: "MB/s", higher: true},
	{name: "consensus.reelect_s", unit: "s"},
	{name: "consensus.elections", unit: "count"},
	{name: "fleet.requests", unit: "count", exact: true},
	{name: "fleet.executed", unit: "count", exact: true},
	{name: "fleet.retries", unit: "count", exact: true},
	{name: "fleet.dup_hits", unit: "count", exact: true},
	{name: "fleet.resent", unit: "count", exact: true},
	{name: "fleet.promotions", unit: "count", exact: true},
	{name: "fleet.transfers", unit: "count", exact: true},
	{name: "fleet.p50_virtual_us", unit: "us", exact: true},
	{name: "fleet.p99_virtual_us", unit: "us", exact: true},
	{name: "fleet.blast_radius", unit: "fraction", exact: true},
	{name: "fleet.throughput_virtual_ops_s", unit: "1/s", exact: true, higher: true},
	{name: "fleet.wall_ns_per_request", unit: "ns"},
	{name: "fleet.submit_ns", unit: "ns"},
	{name: "loadgen.wall_ns_per_request", unit: "ns"},
	{name: "fleet.kill_wall_s", unit: "s"},
	{name: "fleet.verify_s", unit: "s"},
	{name: "fleet.quorum_wall_ns_per_request", unit: "ns"},
	{name: "debug.open_s", unit: "s"},
	{name: "debug.goto_mid_s", unit: "s"},
	{name: "debug.rstep_s", unit: "s"},
	{name: "fig2.primary_x", unit: "x"},
	{name: "fig2.backup_x", unit: "x"},
	{name: "fig2.link_model_x", unit: "x"},
	{name: "trace.overhead_frac", unit: "fraction"},
}
