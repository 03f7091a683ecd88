package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// report is what one run of one workload measured. Every iteration of every
// phase is one attempted operation; it fails on an error, on a mismatch with
// the oracle or on a count that did not repeat.
type report struct {
	workload  string
	values    map[string]samples
	attempted int
	failed    int
	failures  []string
	notes     []string // printed under the table; not part of the result line
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]samples)}
}

// add appends one iteration's value of a metric.
func (r *report) add(name string, v float64) { r.values[name] = append(r.values[name], v) }

// set records a metric that has one value for the whole run.
func (r *report) set(name string, v float64) { r.values[name] = samples{v} }

// op accounts one attempted operation and reports whether it succeeded.
func (r *report) op(what string, err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	return false
}

// print writes the table a person reads: every metric by name with its
// unit, the best sample (what the driver's line carries), median, quartiles
// and sample count.
func (r *report) print(w io.Writer, metrics []metric) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tunit\tbest\tmedian\tq1\tq3\tn\n", r.workload)
	for _, m := range metrics {
		vals := r.values[m.name]
		s := vals.summary()
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n", m.name, m.unit, vals.best(m.higher), s.Median, s.Q1, s.Q3, s.N)
	}
	tw.Flush()
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// resultLine is the last line of standard output, the one the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the driver's line: the best sample of every metric asked for.
// A metric the run never recorded is a bug in the benchmark, not a zero.
func (r *report) result(metrics []metric) ([]byte, error) {
	line := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(metrics)),
	}
	for _, m := range metrics {
		vals, ok := r.values[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s never recorded %s", r.workload, m.name)
		}
		v := vals.best(m.higher)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: %s is %v", r.workload, m.name, v)
		}
		line.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	return json.Marshal(line)
}
