// Command ftvm-run executes an FTVM program — minilang source (.ml), text
// assembly (.fta) or a binary image (.ftb) — standalone, replicated, or
// replicated with an injected primary failure and backup recovery.
//
// Usage:
//
//	ftvm-run prog.ml                         # standalone
//	ftvm-run -mode lock prog.ml              # primary-backup, lock replication
//	ftvm-run -mode sched -kill 500 prog.ml   # kill primary after 500 log records,
//	                                         # recover at the backup
//	ftvm-run -bench db -scale 1              # run a built-in benchmark workload
//	ftvm-run -stats prog.ml                  # print VM statistics
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/bytecode"
	"repro/internal/minilang"
	"repro/internal/programs"
	"repro/internal/replication"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode    = flag.String("mode", "", "replication mode: lock, sched or lockint (empty = standalone)")
		warm    = flag.Bool("warm", false, "use a warm backup (executes concurrently with the primary)")
		kill    = flag.Int("kill", 0, "kill the primary after this many logged records and recover (0 = run to completion)")
		bench   = flag.String("bench", "", "run a built-in benchmark instead of a file")
		scale   = flag.Int("scale", 1, "benchmark scale factor")
		seed    = flag.Int64("seed", 1, "environment seed")
		polSeed = flag.Int64("policy-seed", 1, "scheduling policy seed")
		stats   = flag.Bool("stats", false, "print VM statistics")
		quiet   = flag.Bool("quiet", false, "suppress program console output")
		maxIns  = flag.Uint64("max-instructions", 0, "abort after this many instructions (0 = unlimited)")
		capture = flag.String("capture", "", "write the replicated run's event log to this .ftlog path (requires -mode; input for ftvm-debug)")
	)
	flag.Parse()

	prog, err := loadProgram(*bench, *scale, flag.Args())
	if err != nil {
		return err
	}
	if *capture != "" && *mode == "" {
		return fmt.Errorf("-capture requires -mode (only replicated runs log events)")
	}
	opts := ftvm.Options{EnvSeed: *seed, PolicySeed: *polSeed, MaxInstructions: *maxIns, CaptureLog: *capture}

	var console []string
	var st ftvm.Stats
	var elapsed time.Duration
	switch {
	case *mode == "" && *kill == 0:
		res, err := ftvm.Run(prog, opts)
		if err != nil {
			return err
		}
		console, st, elapsed = res.Console, res.Stats, res.Elapsed
	case *mode != "":
		m, err := replication.ParseMode(*mode)
		if err != nil {
			return err
		}
		if *warm {
			var trigger ftvm.KillTrigger
			if *kill > 0 {
				trigger = ftvm.KillAfterRecords(*kill)
			}
			res, err := ftvm.RunWarmReplicated(prog, m, trigger, opts)
			if err != nil {
				return err
			}
			console, st, elapsed = res.Console, res.Stats, res.Elapsed
			fmt.Fprintf(os.Stderr, "warm backup (%s): outcome %v, killed=%v, backup executed %d instructions, caught up: %v\n",
				m, res.Outcome, res.Killed, res.Warm.Replay.VMStats.Instructions, res.Warm.CaughtUpAtClose)
			break
		}
		if *kill > 0 {
			res, err := ftvm.RunWithFailover(prog, m, ftvm.KillAfterRecords(*kill), opts)
			if err != nil {
				return err
			}
			console, st, elapsed = res.Console, res.Stats, res.Elapsed
			if res.Killed {
				fmt.Fprintf(os.Stderr, "primary killed after %d records; backup recovered in %v (replayed %d records)\n",
					res.Backup.RecordsLogged, res.RecoveryElapsed, res.Recovery.RecordsInLog)
			} else {
				fmt.Fprintln(os.Stderr, "primary completed before the kill trigger fired")
			}
		} else {
			res, err := ftvm.RunReplicated(prog, m, opts)
			if err != nil {
				return err
			}
			console, st, elapsed = res.Console, res.Stats, res.Elapsed
			fmt.Fprintf(os.Stderr, "replicated (%s): %d records logged, %d frames, %d output commits\n",
				m, res.Primary.RecordsLogged, res.Primary.FramesSent, res.Primary.OutputIntents)
		}
	default:
		return fmt.Errorf("-kill requires -mode")
	}

	if !*quiet {
		for _, line := range console {
			fmt.Println(line)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr,
			"elapsed %v: %d instructions, %d branches, %d locks (%d objects, largest l_asn %d), %d reschedules, %d natives (%d intercepted, %d output commits), %d threads, %d GCs\n",
			elapsed.Round(time.Millisecond), st.Instructions, st.Branches,
			st.LocksAcquired, st.ObjectsLocked, st.LargestLASN, st.Reschedules,
			st.NativeCalls, st.NMIntercepted, st.NMOutputCommits, st.ThreadsSpawned+1, st.GCs)
	}
	return nil
}

func loadProgram(bench string, scale int, args []string) (*ftvm.Program, error) {
	if bench != "" {
		return programs.Compile(bench, scale)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: ftvm-run [flags] <program.(ml|fta|ftb)> (or -bench <name>)")
	}
	path := args[0]
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".ml"):
		return minilang.Compile(path, string(data))
	case strings.HasSuffix(path, ".fta"):
		return bytecode.AssembleString(string(data))
	case strings.HasSuffix(path, ".ftb"):
		return bytecode.DecodeBytes(data)
	default:
		// Guess: try minilang first, then assembly.
		if p, err := minilang.Compile(path, string(data)); err == nil {
			return p, nil
		}
		return bytecode.AssembleString(string(data))
	}
}
