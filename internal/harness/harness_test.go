package harness

import (
	"strings"
	"testing"
)

// TestRunBenchmarkPipeline runs the full measurement pipeline (baseline,
// lock primary + full-log replay, sched primary + full-log replay) on the
// two cheapest workloads.
func TestRunBenchmarkPipeline(t *testing.T) {
	for _, name := range []string{"mtrt", "jess"} {
		r, err := RunBenchmark(name, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Baseline <= 0 || r.Lock.PrimaryElapsed <= 0 || r.Sched.PrimaryElapsed <= 0 {
			t.Fatalf("%s: missing timings %+v", name, r)
		}
		if r.Lock.Metrics.LockRecords == 0 {
			t.Errorf("%s: no lock records logged", name)
		}
		if r.Lock.Replay == nil || r.Sched.Replay == nil {
			t.Fatalf("%s: missing replay reports", name)
		}
		if r.Lock.Replay.FedResults == 0 {
			t.Errorf("%s: lock replay fed no native results", name)
		}
		t.Logf("%s: base=%v lockP=%v lockB=%v tsP=%v tsB=%v lockRecs=%d switchRecs=%d",
			name, r.Baseline, r.Lock.PrimaryElapsed, r.Lock.ReplayElapsed,
			r.Sched.PrimaryElapsed, r.Sched.ReplayElapsed,
			r.Lock.Metrics.LockRecords, r.Sched.Metrics.SwitchRecords)
	}
}

func TestReportsRender(t *testing.T) {
	results, err := RunAll(Config{Benchmarks: []string{"mtrt"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{Table2(results), Figure2(results), Figure3(results), Figure4(results), Summary(results)} {
		if !strings.Contains(s, "mtrt") && !strings.Contains(s, "benchmark") {
			t.Errorf("report missing content:\n%s", s)
		}
		t.Log("\n" + s)
	}
}
