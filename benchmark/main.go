// Command benchmark is the repository's one measurement spine: it runs one
// workload, checks every output against an oracle, and prints every metric
// by name with its unit, best sample, median, quartiles and sample count,
// then one JSON line for the driver. See README.md for the metrics and how they interact.
//
//	go run -C benchmark . -workload db-lock -seed 7 -seconds 20 -trace 0
//	go run -C benchmark . -workload db-lock -seed 7 -trace 1 -trace-out db.trace.json
//	go run -C benchmark . -selfcheck
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "the only source of the environment, policy, consensus and load seeds")
	secs := fs.Int("seconds", 20, "measurement budget; fixes the number of timed rounds, never a deadline")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this JSON file")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two sets of results against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck {
		return runSelfcheck(*seed, *secs, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	cfg := runConfig{seed: *seed, rounds: rounds(*secs), iters: traceIterations}
	printConfig(stdout, w, cfg)

	var rep *report
	var err error
	metrics := endToEnd
	if *trace != 0 {
		var tr *tracer
		metrics = perLayer
		rep, tr, err = traceWorkload(w, cfg)
		if err == nil && *traceOut != "" {
			err = tr.write(*traceOut, w.name, cfg.seed)
		}
	} else {
		rep, err = measureWorkload(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.print(stdout, metrics)
	if rep.failed > 0 {
		return 1
	}
	line, err := rep.result(metrics)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func measureWorkload(w workload, cfg runConfig) (*report, error) {
	if w.fleet != nil {
		return measureFleet(w, cfg)
	}
	return measureVM(w, cfg)
}

func traceWorkload(w workload, cfg runConfig) (*report, *tracer, error) {
	if w.fleet != nil {
		return traceFleet(w, cfg)
	}
	return traceVM(w, cfg)
}

// printConfig states the frozen configuration and the injected delays.
func printConfig(out io.Writer, w workload, cfg runConfig) {
	fmt.Fprintf(out, "workload %s seed %d: %d timed rounds of every phase, closed loop, one process\n",
		w.name, cfg.seed, cfg.rounds)
	if v := w.vm; v != nil {
		backend := "pair"
		if v.backend != 0 {
			backend = "consensus (3 replicas, wall clock)"
		}
		fmt.Fprintf(out, "  program %s x%d, mode %v, backend %s, raw in-process pipe (injected link delay 0)\n",
			v.program, v.scale, v.mode, backend)
	}
	if f := w.fleet; f != nil {
		fmt.Fprintf(out, "  %d clients x %d ops, %d nodes / %d shards, pair backend, %v virtual window, %s killed at %v, open loop on the virtual clock\n",
			f.clients, f.opsPerClient, f.nodes, f.shards, f.window, f.victim, f.killAt)
		fmt.Fprintln(out, "  injected virtual delays (fleet.Config defaults): 200us client<->node, 100us primary<->backup, 10us per op")
	}
}

// runSelfcheck is the acceptance run: every workload twice with the same
// code, and for each end-to-end metric the relative difference of the two
// reported values against its bound.
func runSelfcheck(seed uint64, seconds int, out io.Writer) int {
	status := 0
	for _, w := range workloads {
		cfg := runConfig{seed: seed, rounds: rounds(seconds)}
		var reported [2]map[string]float64
		for set := range reported {
			rep, err := measureWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(out, "%s: %v\n", w.name, err)
				return 1
			}
			if rep.failed > 0 {
				rep.print(out, endToEnd)
				return 1
			}
			reported[set] = make(map[string]float64)
			for _, m := range endToEnd {
				reported[set][m.name] = rep.values[m.name].best(m.higher)
			}
		}
		for _, m := range endToEnd {
			a, b := reported[0][m.name], reported[1][m.name]
			worse := (b - a) / a
			verdict := "ok"
			if worse > m.bound {
				verdict = "EXCEEDS BOUND"
				status = 1
			}
			fmt.Fprintf(out, "%-22s %-11s %12.6g %12.6g  %+7.2f%%  bound %4.1f%%  %s\n",
				w.name, m.name, a, b, 100*worse, 100*m.bound, verdict)
		}
	}
	return status
}
