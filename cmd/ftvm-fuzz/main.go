// Command ftvm-fuzz is the open-ended soak driver for the whole-program
// differential fuzzer: it generates seeded multi-threaded minilang programs
// (internal/fuzzgen) and cross-checks standalone, replicated, failover,
// consensus, and dispatch-engine execution (internal/simtest's FuzzConfig),
// shrinking any divergence to a minimized .mini repro artifact. The
// replicated, failover and consensus stages are simulator scenarios, so a
// failure there prints the exact `ftvm-sim -replay` key that reproduces it.
//
// Usage:
//
//	ftvm-fuzz                               # 100 seeds, every stage
//	ftvm-fuzz -seeds 100000 -size large     # overnight soak
//	ftvm-fuzz -mode failover -seeds 5000    # failure injection only
//	ftvm-fuzz -seeds 1 -start 8241 -v       # re-run one failing seed
//
// Exit status is non-zero if any seed diverged; repro artifacts land in
// -artifacts (seed<N>-<stage>.mini plus .ref.txt/.got.txt consoles).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/simtest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-fuzz:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seeds     = flag.Int("seeds", 100, "number of seeds to check")
		start     = flag.Uint64("start", 0, "first seed")
		mode      = flag.String("mode", "all", "stage to check: all, standalone, replicated, failover, consensus, dispatch")
		sizeName  = flag.String("size", "medium", "program size tier: small, medium, large")
		artifacts = flag.String("artifacts", "fuzz-artifacts", "directory for minimized repro artifacts")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers")
		verbose   = flag.Bool("v", false, "log every seed")
	)
	flag.Parse()

	size, err := fuzzgen.SizeByName(*sizeName)
	if err != nil {
		return err
	}
	var stages []string
	switch *mode {
	case "all":
		stages = nil // every stage
	case simtest.StageStandalone, simtest.StageReplicated, simtest.StageFailover,
		simtest.StageConsensus, simtest.StageDispatch:
		stages = []string{*mode}
	default:
		return fmt.Errorf("unknown -mode %q (all, standalone, replicated, failover, consensus, dispatch)", *mode)
	}
	if *jobs < 1 {
		*jobs = 1
	}

	cfg := &simtest.FuzzConfig{ArtifactDir: *artifacts}
	var (
		checked  atomic.Int64
		diverged atomic.Int64
		outMu    sync.Mutex
		wg       sync.WaitGroup
		work     = make(chan uint64)
	)
	for w := 0; w < *jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				p := fuzzgen.Generate(seed, size)
				f := cfg.CheckProg(p, stages)
				checked.Add(1)
				if f == nil {
					if *verbose {
						outMu.Lock()
						fmt.Printf("seed %d ok\n", seed)
						outMu.Unlock()
					}
					continue
				}
				diverged.Add(1)
				report := cfg.Report(p, f)
				outMu.Lock()
				fmt.Printf("FAIL %s", report)
				outMu.Unlock()
			}
		}()
	}

	t0 := time.Now()
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				n := checked.Load()
				fmt.Printf("... %d/%d seeds checked (%.1f/s), %d divergences\n",
					n, *seeds, float64(n)/time.Since(t0).Seconds(), diverged.Load())
			}
		}
	}()

	for i := 0; i < *seeds; i++ {
		work <- *start + uint64(i)
	}
	close(work)
	wg.Wait()
	close(stop)

	fmt.Printf("checked %d seeds (size %s, mode %s) in %v: %d divergences\n",
		checked.Load(), size, *mode, time.Since(t0).Round(time.Millisecond), diverged.Load())
	if diverged.Load() > 0 {
		return fmt.Errorf("%d seeds diverged; repro artifacts in %s", diverged.Load(), *artifacts)
	}
	return nil
}
