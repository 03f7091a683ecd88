package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkMetrics(t *testing.T, section string, got []jsonMetric, want []metric, seen map[string]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", section, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		better := "lower"
		if w.higher {
			better = "higher"
		}
		if g.Name != w.name || g.Unit != w.unit || g.Better != better || g.Bound != w.bound {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, spec.go {%s %s %s %v}", section, i, g, w.name, w.unit, better, w.bound)
		}
		if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
			t.Errorf("%s[%d]: name %q or unit %q outside the contract's alphabet", section, i, g.Name, g.Unit)
		}
		if seen[g.Name] {
			t.Errorf("%s: name %q used twice", section, g.Name)
		}
		seen[g.Name] = true
	}
}

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json and spec.go together.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(spec.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
		if seen[w.Name] {
			t.Errorf("name %q used twice", w.Name)
		}
		seen[w.Name] = true
	}
	checkMetrics(t, "end_to_end", spec.EndToEnd, endToEnd, seen)
	checkMetrics(t, "per_layer", spec.PerLayer, perLayer, seen)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if got := rounds(spec.RunSeconds); got != 12 {
		t.Errorf("run_seconds %d gives %d rounds, README.md says 12", spec.RunSeconds, got)
	}
}

// TestDriverFlags checks that the driver's way of spelling the flags parses.
func TestDriverFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "no-such", "--seed", "3", "--seconds", "20", "--trace", "0"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "unknown workload") || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// resultMetrics renders the driver's line and decodes it again.
func resultMetrics(t *testing.T, rep *report, metrics []metric) map[string]resultValue {
	t.Helper()
	if rep.failed > 0 {
		t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
	}
	line, err := rep.result(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var decoded resultLine
	if err := json.Unmarshal(line, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.Correct || decoded.Attempted < 1 || decoded.Failed != 0 || len(decoded.Metrics) != len(metrics) {
		t.Fatalf("result line %s", line)
	}
	return decoded.Metrics
}

// TestSmoke runs every workload at its smallest scale, one iteration of
// everything: all metrics are emitted, exact counts repeat bit for bit with
// the same seed, another seed still passes the oracle, and a damaged oracle
// makes the run fail.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w.quick()
		t.Run(w.name, func(t *testing.T) {
			// The consensus replicas run on the wall clock and lose their
			// leader when starved, so that workload runs alone, before the
			// parallel ones start.
			if w.name != "mtrt-sched-consensus" {
				t.Parallel()
			}
			cfg := runConfig{seed: 1, rounds: 1, iters: 1, quick: true}

			rep, err := measureWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range resultMetrics(t, rep, endToEnd) {
				if v.Value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", name, v.Value)
				}
			}

			var traced [2]map[string]resultValue
			for i := range traced {
				rep, _, err := traceWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				traced[i] = resultMetrics(t, rep, perLayer)
			}
			for _, m := range perLayer {
				if a, b := traced[0][m.name].Value, traced[1][m.name].Value; m.exact && a != b {
					t.Errorf("%s is marked exact but read %v then %v with the same seed", m.name, a, b)
				}
			}
			if w.fleet != nil && traced[0]["vm.instructions"].Value != 0 {
				t.Errorf("vm.instructions = %v on the fleet workload", traced[0]["vm.instructions"].Value)
			}
			if w.vm != nil && traced[0]["replication.live_failover_ok"].Value != 1 {
				t.Error("live failover check did not pass")
			}

			other := cfg
			other.seed = 2
			rep, err = measureWorkload(w, other)
			if err != nil {
				t.Fatal(err)
			}
			resultMetrics(t, rep, endToEnd)

			corrupt := cfg
			corrupt.corruptOracle = true
			rep, err = measureWorkload(w, corrupt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed == 0 {
				t.Errorf("with a corrupted oracle none of %d operations failed", rep.attempted)
			}
		})
	}
}
