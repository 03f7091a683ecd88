// Command ftvm-fleet runs the sharded multi-tenant serving fleet
// (internal/fleet) under its seeded open-loop load generator
// (internal/fleet/loadgen) on a virtual clock: a million simulated client
// sessions — arrivals, retries, node kills, promotion windows, recruitment
// state transfers — execute as one discrete-event simulation in seconds of
// wall time, and every number printed is a pure function of (config, seed).
//
// Usage:
//
//	ftvm-fleet                                   # 1M clients, one mid-window kill
//	ftvm-fleet -clients 100000 -kills n2@800ms   # smaller population
//	ftvm-fleet -fault ackdrop -fault-every 1000  # layer replication faults on top
//
// The run fails (non-zero exit) if the model verification finds any request
// executed other than exactly once, or if the failover blast radius reaches
// the killed nodes' share of the fleet.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleet/loadgen"
	"repro/internal/simtest/clock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-fleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		clients  = flag.Int("clients", 1_000_000, "simulated client sessions")
		ops      = flag.Int("ops", 2, "requests per client session")
		nodes    = flag.Int("nodes", 8, "fleet node count")
		shards   = flag.Int("shards", 32, "shard count")
		seed     = flag.Uint64("seed", 1, "workload master seed")
		window   = flag.Duration("window", 2*time.Second, "client arrival window (virtual)")
		killSpec = flag.String("kills", "n2@800ms", "comma-separated node@offset kills; empty = none")
		fault    = flag.String("fault", "none", "replication fault kind: none, framedrop, ackdrop, replydrop")
		every    = flag.Uint64("fault-every", 0, "strike every Nth replication attempt (0 = never)")
		sample   = flag.Int("sample", 256, "verify observations from every Nth client")
	)
	flag.Parse()

	kills, err := parseKills(*killSpec)
	if err != nil {
		return err
	}
	nodeNames := make([]string, *nodes)
	for i := range nodeNames {
		nodeNames[i] = fmt.Sprintf("n%d", i+1)
	}

	clk := clock.NewVirtual()
	defer clk.Watchdog(5 * time.Minute)()
	f, err := fleet.New(fleet.Config{
		Clock: clk, Nodes: nodeNames, Shards: *shards,
		Fault: *fault, FaultEvery: *every,
	})
	if err != nil {
		return err
	}

	wall0 := clock.Real.Now()
	clk.Attach()
	st, obs, err := loadgen.Run(f, clk, loadgen.Config{
		Clients:      *clients,
		OpsPerClient: *ops,
		Seed:         *seed,
		Window:       *window,
		Kills:        kills,
		SampleEvery:  *sample,
	})
	clk.Detach()
	wall := clock.Real.Since(wall0)
	if err != nil {
		return err
	}

	bound := float64(len(kills)) / float64(*nodes)
	fmt.Printf("fleet: %d clients x %d ops on %d nodes / %d shards, seed %d\n",
		st.Clients, *ops, *nodes, *shards, *seed)
	fmt.Printf("  oks %d / requests %d (retries %d, silent %d, unavailable %d, not-owner %d)\n",
		st.OKs, st.Requests, st.Retries, st.Silent, st.Unavailable, st.NotOwner)
	fmt.Printf("  virtual %v, wall %v (%.2fx), %.0f ops/virtual-sec\n",
		st.Elapsed.Round(time.Millisecond), wall.Round(time.Millisecond),
		st.Elapsed.Seconds()/wall.Seconds(), st.Throughput)
	fmt.Printf("  latency p50 %v p99 %v\n", st.P50, st.P99)
	fmt.Printf("  blast %d/%d tenants (%.4f; killed share %.4f)\n",
		st.TenantsBlasted, st.TenantsActive, st.BlastRadius, bound)
	fmt.Printf("  fleet: executed %d, dup hits %d, resent %d, promotions %d, transfers %d, stale frames %d\n",
		st.Fleet.Executed, st.Fleet.DupHits, st.Fleet.Resent,
		st.Fleet.Promotions, st.Fleet.Transfers, st.Fleet.StaleFrames)
	fmt.Printf("  checksum %016x, %d observations verified against the model\n", st.Checksum, len(obs))

	if st.Fleet.Executed < st.Requests {
		return fmt.Errorf("executed %d < requests %d: some request never ran", st.Fleet.Executed, st.Requests)
	}
	if len(kills) > 0 && st.BlastRadius >= bound {
		return fmt.Errorf("blast radius %.4f reached the killed nodes' share %.4f", st.BlastRadius, bound)
	}
	return nil
}

// parseKills parses "n2@800ms,n5@1.2s" into the loadgen kill schedule.
func parseKills(spec string) ([]loadgen.Kill, error) {
	if spec == "" {
		return nil, nil
	}
	var kills []loadgen.Kill
	for _, part := range strings.Split(spec, ",") {
		node, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("kill %q is not node@offset", part)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("kill %q: %w", part, err)
		}
		kills = append(kills, loadgen.Kill{At: d, Node: node})
	}
	return kills, nil
}
