// Command ftvm-sim drives the deterministic simulation harness
// (internal/simtest): a complete primary/backup pair runs in one process on a
// virtual clock over a seeded simulated network, so hundreds of kill-point ×
// fault-schedule × seed combinations execute in seconds of wall time and
// every outcome — message timing included — is a pure function of the combo.
//
// Usage:
//
//	ftvm-sim                            # default sweep (>200 combos)
//	ftvm-sim -progs 8 -start 100 -nets 4 -v     # wider sweep
//	ftvm-sim -kills 1,2,3,5,8,13,21     # denser kill positions
//	ftvm-sim -trace sweep.txt           # write the deterministic trace
//	ftvm-sim -view                      # three-node view-change sweep
//	ftvm-sim -fleet                     # sharded-fleet kill x fault sweep
//	ftvm-sim -consensus                 # replicated-log (consensus backend) sweep
//	ftvm-sim -replay "prog=7,size=small,mode=sched,kill=12,deliver=1,fault=none@0,net=3,reorder=1/8"
//	ftvm-sim -replay "prog=3,size=small,mode=lock,kill1=4,d1=0,kill2=1,d2=0,fault=none@0,inject=1,net=5,reorder=1/8"
//	ftvm-sim -replay "seed=3,nodes=4,shards=8,clients=1000,ops=3,ka=3@250,kb=0@0,fault=ackdrop/13,inject=0"
//	ftvm-sim -replay "prog=1,size=small,mode=lock,who=leader,kill=5,deliver=1,part=0+0,inject=0,fault=none@0,eseed=1,net=1,reorder=1/8"
//
// With -view the sweep runs the three-node cluster (internal/simtest's view
// service): the first primary is killed, the promoted backup recruits the
// idle node through a snapshot + live-tail state transfer, and schedules kill
// the promoted primary too — the n−1 sequential-failure space.
//
// With -fleet the sweep runs the sharded multi-tenant fleet (internal/fleet)
// under its seeded open-loop load generator: node kills mid-window, faults on
// the replication hop, double kills, and stale-epoch probes, with every
// request checked for at-most-once execution against the model.
//
// With -consensus the sweep runs the VM over the consensus-backed replicated
// log (internal/consensus behind replication.CoordinationBackend): a
// three-replica Raft-style cluster commits every frame batch by majority
// before outputs release, and schedules kill the leader mid-commit, kill
// followers, open finite partition windows on the leader lane, inject
// stale-term frames, and vary the election seed to force contested votes.
//
// All four sweeps and -replay go through the one engine in internal/simtest:
// simtest.ParseKey reads the kind off the key's field structure (a "clients"
// field means a fleet combo, "who" a consensus combo, "kill1" a view combo,
// anything else a pair combo) and rejects unknown, repeated, ambiguous or
// malformed fields with an error naming the field. Pair replays accept
// -capture to write the backup's replication log as a .ftlog for ftvm-debug.
//
// On any divergence the sweep prints the failing combo's trace line and the
// single -replay string that reproduces it; exit status is non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/fuzzgen"
	"repro/internal/simtest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		replay   = flag.String("replay", "", "replay one combo from its key string and exit")
		progs    = flag.Int("progs", 4, "number of generated-program seeds to sweep")
		start    = flag.Uint64("start", 1, "first program seed")
		sizeName = flag.String("size", "small", "program size tier: small, medium, large")
		kills    = flag.String("kills", "", "comma-separated kill positions in frame sends (default 1,3,8,20)")
		nets     = flag.Int("nets", 2, "number of network seeds per schedule")
		tracePth = flag.String("trace", "", "write the full deterministic trace to this file")
		verbose  = flag.Bool("v", false, "print every combo's trace line")
		view     = flag.Bool("view", false, "sweep the three-node view-change cluster instead of the pair")
		fleetSw  = flag.Bool("fleet", false, "sweep the sharded multi-tenant fleet instead of the pair")
		clients  = flag.Int("clients", 1000, "clients per fleet combo (with -fleet)")
		consens  = flag.Bool("consensus", false, "sweep the consensus-backed replicated log instead of the pair")
		capture  = flag.String("capture", "", "with -replay of a pair combo: write the backup's replication log to this .ftlog file for ftvm-debug")
	)
	flag.Parse()

	if *replay != "" {
		return runReplay(*replay, *capture)
	}
	if *capture != "" {
		return fmt.Errorf("-capture requires -replay with a pair combo key")
	}

	cfg := simtest.SweepConfig{Clients: *clients}
	switch {
	case *fleetSw:
		cfg.Kind = simtest.KindFleet
	case *consens:
		cfg.Kind = simtest.KindConsensus
	case *view:
		cfg.Kind = simtest.KindView
	}
	var err error
	if cfg.Size, err = fuzzgen.SizeByName(*sizeName); err != nil {
		return err
	}
	for i := 0; i < *progs; i++ {
		cfg.Seeds = append(cfg.Seeds, *start+uint64(i))
	}
	for i := 0; i < *nets; i++ {
		cfg.NetSeeds = append(cfg.NetSeeds, int64(i+1))
	}
	if *kills != "" {
		for _, f := range strings.Split(*kills, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -kills entry %q: %w", f, err)
			}
			cfg.Kills = append(cfg.Kills, n)
		}
	}
	var logf func(string)
	if *verbose {
		logf = func(line string) { fmt.Println(line) }
	}

	res := simtest.RunSweep(cfg, logf)
	if *tracePth != "" {
		data := strings.Join(res.Trace, "\n") + "\n"
		if err := atomicio.WriteFile(*tracePth, []byte(data), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("swept %d combos (%d program seeds, %d net seeds, size %s) in %v wall: %d failures\n",
		res.Combos, *progs, *nets, cfg.Size, res.Elapsed.Round(time.Millisecond), len(res.Failures))
	for _, f := range res.Failures {
		fmt.Printf("FAIL %s\n  replay: %s\n", f.TraceLine(), f.ReplayCommand())
	}
	if n := len(res.Failures); n > 0 {
		return fmt.Errorf("%d of %d combos diverged", n, res.Combos)
	}
	return nil
}

func runReplay(key, capture string) error {
	sc, err := simtest.ParseKey(key)
	if err != nil {
		return err
	}
	if capture != "" {
		cb, ok := sc.(*simtest.Combo)
		if !ok {
			return fmt.Errorf("-capture only applies to pair combos, not %s keys", sc.Kind())
		}
		cb.Capture = capture
	}
	out := simtest.Run(sc)
	fmt.Println(out.TraceLine())
	if out.Err == nil && out.Detail != "" && len(out.Ref)+len(out.Console) > 0 {
		fmt.Println("reference console:")
		for _, ln := range out.Ref {
			fmt.Printf("  %s\n", ln)
		}
		fmt.Println("simulated console:")
		for _, ln := range out.Console {
			fmt.Printf("  %s\n", ln)
		}
	}
	return out.Failure()
}
