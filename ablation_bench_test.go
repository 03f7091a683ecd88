package ftvm

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//	BenchmarkAblationIntervals  — plain lock records vs DejaVu-style logical
//	                              interval compression (§6), on the two most
//	                              lock-intensive workloads;
//	BenchmarkAblationFlushBatch — log batching size vs communication and
//	                              output-commit pessimism.
//
// Both ship over the raw pipe and report exact counts; what the paper's link
// would add to them is internal/harness's arithmetic on those counts.

import (
	"testing"

	"repro/internal/programs"
)

func BenchmarkAblationIntervals(b *testing.B) {
	for _, name := range []string{"db", "mtrt"} {
		prog, err := programs.Compile(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []Mode{ModeLock, ModeLockInterval} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunReplicated(prog, mode, Options{EnvSeed: 20030622})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Primary.RecordsLogged), "records")
					b.ReportMetric(float64(res.Primary.BytesSent), "bytes")
				}
			})
		}
	}
}

func BenchmarkAblationFlushBatch(b *testing.B) {
	prog, err := programs.Compile("db", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{32, 512, 4096} {
		b.Run(map[int]string{32: "batch32", 512: "batch512", 4096: "batch4096"}[batch], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunReplicated(prog, ModeLock, Options{
					EnvSeed:    20030622,
					FlushEvery: batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Primary.FramesSent), "frames")
				b.ReportMetric(res.Primary.Communication.Seconds(), "comm-s")
				b.ReportMetric(res.Primary.Pessimism.Seconds(), "pessim-s")
			}
		})
	}
}
