package vm

import (
	"testing"

	"repro/internal/env"
	"repro/internal/minilang"
)

// BenchmarkTrackedSpin runs the root package's spin loop (benchSpin in
// bench_test.go) on an untracked and on a tracked VM. The ratio of the two
// ns/instr figures is what the §4.2 control-path checksum costs the
// interpreter.
func BenchmarkTrackedSpin(b *testing.B) {
	benchTracked(b, `
func main() {
	var x int = 0;
	for (var i int = 0; i < 2000000; i = i + 1) {
		x = (x * 31 + i) & 1048575;
	}
	print(x);
}`, func(s Stats) uint64 { return s.Instructions }, "ns/instr")
}

// BenchmarkUncontendedLock runs 1M uncontended enter/exit pairs on one
// object, on an untracked and on a tracked VM, and reports ns per pair, the
// loop's own instructions included: the monitor is found through the
// object's header, and an acquire that does not block stays in the dispatch
// loop.
func BenchmarkUncontendedLock(b *testing.B) {
	benchTracked(b, `
class L { v int; }
func main() {
	var o L = new L;
	for (var i int = 0; i < 1000000; i = i + 1) {
		lock (o) {
			o.v = o.v + 1;
		}
	}
	print(o.v);
}`, func(s Stats) uint64 { return s.LocksAcquired }, "ns/pair")
}

// benchTracked runs src on an untracked and on a tracked VM, vm.New outside
// the timed region, and reports the time per unit that count reads off each
// run's Stats.
func benchTracked(b *testing.B, src string, count func(Stats) uint64, unit string) {
	p, err := minilang.Compile(b.Name(), src)
	if err != nil {
		b.Fatal(err)
	}
	for _, track := range []bool{false, true} {
		name := "untracked"
		if track {
			name = "tracked"
		}
		b.Run(name, func(b *testing.B) {
			var n uint64
			for range b.N {
				b.StopTimer()
				v, err := New(Config{Program: p, Env: env.New(1), TrackProgress: track})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := v.Run(); err != nil {
					b.Fatal(err)
				}
				n += count(v.Stats())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), unit)
		})
	}
}
