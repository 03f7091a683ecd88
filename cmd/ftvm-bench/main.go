// Command ftvm-bench regenerates the paper's evaluation (§5): Table 2 event
// counts and the Figure 2/3/4 execution-time and overhead-decomposition
// measurements, for the six SPEC JVM98-analog workloads.
//
// Usage:
//
//	ftvm-bench -all                 # everything (default)
//	ftvm-bench -table2              # Table 2 only
//	ftvm-bench -fig2 -fig3 -fig4    # selected figures
//	ftvm-bench -bench db,mtrt       # restrict benchmarks
//	ftvm-bench -scale 2 -repeats 3  # bigger workloads, more rounds
//	ftvm-bench -no-network          # disable the simulated 100 Mbps link
//	ftvm-bench -metrics -bench db   # raw replication metrics as JSON
//	ftvm-bench -quick -metrics      # one fast round, metrics JSON (CI smoke)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bytecode/pairfreq"
	"repro/internal/harness"
	"repro/internal/vm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all       = flag.Bool("all", false, "run every table and figure")
		table2    = flag.Bool("table2", false, "Table 2: per-benchmark event counts")
		fig2      = flag.Bool("fig2", false, "Figure 2: normalized execution times")
		fig3      = flag.Bool("fig3", false, "Figure 3: lock-replication overhead decomposition")
		fig4      = flag.Bool("fig4", false, "Figure 4: thread-scheduling overhead decomposition")
		takeover  = flag.Bool("takeover", false, "extension: cold vs warm backup takeover latency")
		metrics   = flag.Bool("metrics", false, "dump raw replication metrics as JSON")
		quick     = flag.Bool("quick", false, "fast preset: one round, no simulated network")
		benchList = flag.String("bench", "", "comma-separated benchmark subset (default all six)")
		scale     = flag.Int("scale", 1, "workload scale factor")
		repeats   = flag.Int("repeats", 2, "measurement rounds (fastest kept; plus one warm-up)")
		noNet     = flag.Bool("no-network", false, "disable the simulated network link")
		pairFreq  = flag.Bool("pairfreq", false, "dump opcode-pair frequencies over the benchmarks (feeds the fusion table)")
		pairTop   = flag.Int("pairfreq-top", 48, "pair ranking depth for -pairfreq")
		dispatch  = flag.String("dispatch", "", "interpreter stream: threaded (fused, default) or switch (unfused, stepped)")
		perMsg    = flag.Duration("net-per-msg", 150*time.Microsecond, "simulated per-message cost")
		perKB     = flag.Duration("net-per-kb", 450*time.Microsecond, "simulated per-KB cost")
	)
	flag.Parse()
	if *quick {
		*repeats = 1
		*noNet = true
	}
	if !*table2 && !*fig2 && !*fig3 && !*fig4 && !*takeover && !*metrics && !*pairFreq {
		*all = true
	}
	if *all {
		*table2, *fig2, *fig3, *fig4 = true, true, true, true
	}
	disp, err := vm.ParseDispatch(*dispatch)
	if err != nil {
		return err
	}
	cfg := harness.Config{
		Scale:     *scale,
		Repeats:   *repeats,
		NoNetwork: *noNet,
		NetPerMsg: *perMsg,
		NetPerKB:  *perKB,
		Dispatch:  disp,
	}
	if *benchList != "" {
		cfg.Benchmarks = strings.Split(*benchList, ",")
	}

	if *pairFreq {
		fmt.Fprintf(os.Stderr, "profiling opcode pairs over %v (scale %d)...\n", benchNames(cfg), *scale)
		perProg, static, err := harness.PairFreq(cfg)
		if err != nil {
			return err
		}
		dyn := &pairfreq.Counter{}
		for _, c := range perProg {
			dyn.Merge(c)
		}
		fmt.Printf("executed pairs (%d total):\n%s\n", dyn.Total(), dyn.Table(*pairTop))
		fmt.Printf("static pairs (%d total):\n%s", static.Total(), static.Table(*pairTop))
		return nil
	}

	var results []*harness.BenchResult
	if *table2 || *fig2 || *fig3 || *fig4 || *metrics {
		fmt.Fprintf(os.Stderr, "measuring %v (scale %d, %d rounds + warm-up)...\n",
			benchNames(cfg), *scale, *repeats)
		start := time.Now()
		var err error
		results, err = harness.RunAll(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "done in %v\n\n", time.Since(start).Round(time.Second))
	}

	if *table2 {
		fmt.Println(harness.Table2(results))
	}
	if *fig2 {
		fmt.Println(harness.Figure2(results))
	}
	if *fig3 {
		fmt.Println(harness.Figure3(results))
	}
	if *fig4 {
		fmt.Println(harness.Figure4(results))
	}
	if *takeover || *all {
		var tr []*harness.TakeoverResult
		for _, name := range []string{"jess", "mtrt"} {
			r, err := harness.MeasureTakeover(name, 0.5, cfg)
			if err != nil {
				return fmt.Errorf("takeover %s: %w", name, err)
			}
			tr = append(tr, r)
		}
		fmt.Println(harness.TakeoverReport(tr))
	}
	if *metrics {
		doc, err := harness.MetricsJSON(results)
		if err != nil {
			return err
		}
		fmt.Println(doc)
	}
	if len(results) > 0 && !*metrics {
		fmt.Println(harness.Summary(results))
	}
	return nil
}

func benchNames(cfg harness.Config) []string {
	if len(cfg.Benchmarks) > 0 {
		return cfg.Benchmarks
	}
	return []string{"jess", "jack", "compress", "db", "mpegaudio", "mtrt"}
}
