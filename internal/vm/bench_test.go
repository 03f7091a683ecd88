package vm

import (
	"testing"

	"repro/internal/env"
	"repro/internal/minilang"
)

// BenchmarkTrackedSpin runs the root package's spin loop (benchSpin in
// bench_test.go) on an untracked and on a tracked VM. The ratio of the two
// ns/instr figures is what the §4.2 control-path checksum costs the
// interpreter; vm.New is outside the timed region.
func BenchmarkTrackedSpin(b *testing.B) {
	p, err := minilang.Compile("spin", `
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
	for _, track := range []bool{false, true} {
		name := "untracked"
		if track {
			name = "tracked"
		}
		b.Run(name, func(b *testing.B) {
			var instrs uint64
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
				instrs += v.Stats().Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
