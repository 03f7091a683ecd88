package ftvm

// Benchmark harness entry points: one testing.B benchmark per table/figure
// of the paper's evaluation (§5). These wrap the same measurement paths the
// ftvm-bench command uses, sized down so `go test -bench=.` completes in
// minutes; run `go run ./cmd/ftvm-bench -all` for the full calibrated
// reproduction with the simulated testbed network.
//
//	BenchmarkTable2/*     — per-benchmark event counts (Table 2 rows)
//	BenchmarkFig2/*       — baseline, lock/sched primary, lock/sched replay
//	BenchmarkFig3/*       — lock-mode primary (overhead decomposition source)
//	BenchmarkFig4/*       — sched-mode primary (overhead decomposition source)

import (
	"testing"

	"repro/internal/env"
	"repro/internal/programs"
)

// benchWorkloads are the table/figure columns (paper order).
var benchWorkloads = []string{"jess", "jack", "compress", "db", "mpegaudio", "mtrt"}

func compileBench(b *testing.B, name string) *Program {
	b.Helper()
	prog, err := programs.Compile(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkTable2 regenerates the Table 2 event counts: each iteration runs
// the lock-mode primary (whose counters are the table's rows) and reports
// them as benchmark metrics.
func BenchmarkTable2(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			prog := compileBench(b, name)
			for i := 0; i < b.N; i++ {
				res, err := RunReplicated(prog, ModeLock, Options{EnvSeed: 20030622})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.NMIntercepted), "NM")
				b.ReportMetric(float64(res.Stats.NMOutputCommits), "NMcommits")
				b.ReportMetric(float64(res.Primary.RecordsLogged), "logged")
				b.ReportMetric(float64(res.Stats.LocksAcquired), "locks")
				b.ReportMetric(float64(res.Stats.ObjectsLocked), "objects")
				b.ReportMetric(float64(res.Stats.LargestLASN), "maxlasn")
				b.ReportMetric(float64(res.Stats.Reschedules), "resched")
			}
		})
	}
}

// BenchmarkFig2 measures the five Figure 2 configurations per workload:
// the unreplicated baseline, both primaries, and both backup replays.
func BenchmarkFig2(b *testing.B) {
	type cfg struct {
		name string
		run  func(b *testing.B, prog *Program)
	}
	baseline := func(b *testing.B, prog *Program) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(prog, Options{EnvSeed: 20030622}); err != nil {
				b.Fatal(err)
			}
		}
	}
	primary := func(mode Mode) func(*testing.B, *Program) {
		return func(b *testing.B, prog *Program) {
			for i := 0; i < b.N; i++ {
				if _, err := RunReplicated(prog, mode, Options{EnvSeed: 20030622}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	replay := func(mode Mode) func(*testing.B, *Program) {
		return func(b *testing.B, prog *Program) {
			// The full pipeline (primary run + log capture + replay) is
			// timed; the isolated replay cost — MeasureReplay times it
			// separately — is reported as the replay-s metric.
			for i := 0; i < b.N; i++ {
				factory := func() *env.Env { return env.New(20030622) }
				_, rep, err := MeasureReplay(prog, mode, Options{}, factory)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Elapsed.Seconds(), "replay-s")
			}
		}
	}
	cfgs := []cfg{
		{"baseline", baseline},
		{"lock-primary", primary(ModeLock)},
		{"sched-primary", primary(ModeSched)},
		{"lock-replay", replay(ModeLock)},
		{"sched-replay", replay(ModeSched)},
	}
	for _, name := range benchWorkloads {
		prog := compileBench(b, name)
		for _, c := range cfgs {
			b.Run(name+"/"+c.name, func(b *testing.B) { c.run(b, prog) })
		}
	}
}

// BenchmarkFig3 runs the lock-replication primary and reports the overhead
// decomposition components (Figure 3) as metrics.
func BenchmarkFig3(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			prog := compileBench(b, name)
			for i := 0; i < b.N; i++ {
				res, err := RunReplicated(prog, ModeLock, Options{EnvSeed: 20030622})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Primary.Communication.Seconds(), "comm-s")
				b.ReportMetric(res.Primary.Record.Seconds(), "lockacq-s")
				b.ReportMetric(res.Primary.Pessimism.Seconds(), "pessim-s")
			}
		})
	}
}

// BenchmarkFig4 runs the thread-scheduling primary and reports the overhead
// decomposition components (Figure 4) as metrics.
func BenchmarkFig4(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			prog := compileBench(b, name)
			for i := 0; i < b.N; i++ {
				res, err := RunReplicated(prog, ModeSched, Options{EnvSeed: 20030622})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Primary.Communication.Seconds(), "comm-s")
				b.ReportMetric(res.Primary.Record.Seconds(), "resched-s")
				b.ReportMetric(res.Primary.Pessimism.Seconds(), "pessim-s")
			}
		})
	}
}

// benchSpin measures raw interpreter throughput on the given engine
// (instructions per op reported) — the substrate number everything else
// normalizes against.
func benchSpin(b *testing.B, d Dispatch) {
	prog, err := CompileSource("spin", `
func main() {
	var x int = 0;
	for (var i int = 0; i < 2000000; i = i + 1) {
		x = (x * 31 + i) & 1048575;
	}
	print(x);
}`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, Options{EnvSeed: 1, Dispatch: d})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Instructions), "instrs")
	}
}

// BenchmarkInterpreter is the engine on its default (fused) stream.
func BenchmarkInterpreter(b *testing.B) { benchSpin(b, DispatchThreaded) }

// BenchmarkInterpreterSwitch is the same workload stepped over the unfused
// stream: one closure per bytecode and every check per instruction, what the
// engine does for exact-replay and near-budget tails (about 340 ms here
// against the fused stream's 73). Its speed is not a target and no product
// path selects it for whole runs; the benchmark is there so bench-smoke runs
// both streams every time.
func BenchmarkInterpreterSwitch(b *testing.B) { benchSpin(b, DispatchSwitch) }

// BenchmarkNativeCall is a math-heavy loop: 100k iterations of a few float
// ops around math.sqrt and math.pow, 200k native calls per op. Its allocs/op
// is the VM's set-up alone (about 300): a deterministic native call allocates
// nothing (internal/vm's TestNativeCallAllocFree); three allocations a call
// would add 600k.
func BenchmarkNativeCall(b *testing.B) {
	prog, err := CompileSource("natives", `
func main() {
	var x float = 2.0;
	for (var i int = 0; i < 100000; i = i + 1) {
		x = pow(sqrt(x * 1.5 + 0.25), 1.25) - 0.5;
	}
	print(ftoa(x));
}`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, Options{EnvSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.NativeCalls), "native-calls")
	}
}
