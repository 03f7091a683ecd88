// Command ftvm-debug is a time-travel debugger over captured replication
// logs (.ftlog files, written by ftvm-run -capture, ftvm-sim -replay
// -capture, or any Options.CaptureLog run). A log plus the seeds in its
// header determines the execution completely — the paper's determinism
// contract — so the debugger can reconstruct the machine state at ANY global
// branch position by replaying from the nearest cached checkpoint, which
// makes stepping backwards exactly as cheap as stepping forwards.
//
// Usage:
//
//	ftvm-debug trace.ftlog                 # interactive inspection REPL
//	ftvm-debug -diff a.ftlog b.ftlog       # first diverging branch position
//	ftvm-debug -every 256 trace.ftlog      # denser checkpoints
//	ftvm-debug -dispatch switch trace.ftlog  # override the recorded stream
//
// The REPL reads commands from stdin (pipe a script for non-interactive
// use):
//
//	goto N      jump to global branch position N (g)
//	step [N]    forward N positions, default 1 (s)
//	rstep [N]   backward N positions, default 1 (r)
//	pos         print the current position
//	state       print the full deterministic state rendering
//	threads     print threads with their frame stacks
//	locks       print monitors: owner, entry count, queue, wait set
//	heap        print statics and heap occupancy
//	console     print the console written so far
//	checksum    print the state checksum (position fingerprint)
//	final       run to the end and print the final position
//	help        list commands
//	quit        exit (q; EOF also exits)
//
// Every command's output is a pure function of the log and the position, so
// the same script against the same log is byte-identical across runs,
// machines, and interpreter engines — that is what `make debug-smoke`
// asserts.
//
// -diff replays two captures and binary-searches inspection checksums for
// the first global branch position at which the machine states differ, then
// prints both renderings at that position. Divergence is persistent under
// deterministic replay, so checksum comparison is a valid bisection
// predicate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	ftvm "repro"
	"repro/internal/debug"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftvm-debug:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		diff     = flag.Bool("diff", false, "compare two logs: print the first diverging branch position")
		every    = flag.Uint64("every", debug.DefaultEvery, "checkpoint interval in global branches")
		dispatch = flag.String("dispatch", "", "override the recorded interpreter stream: threaded (fused) or switch (unfused, stepped)")
	)
	flag.Parse()

	opts := debug.Options{Every: *every}
	if *dispatch != "" {
		d, err := ftvm.ParseDispatch(*dispatch)
		if err != nil {
			return err
		}
		opts.Dispatch, opts.OverrideDispatch = d, true
	}

	args := flag.Args()
	if *diff {
		if len(args) != 2 {
			return fmt.Errorf("-diff needs exactly two .ftlog paths, got %d", len(args))
		}
		return runDiff(args[0], args[1], opts)
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: ftvm-debug [-every N] [-dispatch stream] trace.ftlog  (or -diff a.ftlog b.ftlog)")
	}
	return runREPL(args[0], opts)
}

func runDiff(pathA, pathB string, opts debug.Options) error {
	// Open's errors already name the file; they are printed as they come.
	a, err := debug.Open(pathA, opts)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := debug.Open(pathB, opts)
	if err != nil {
		return err
	}
	defer b.Close()

	rep, err := debug.Diff(a, b)
	if err != nil {
		return err
	}
	if !rep.Diverged {
		fmt.Printf("identical: both replays agree at every position through %d\n", rep.Pos)
		return nil
	}
	fmt.Printf("diverged at position %d (finals %d vs %d)\n", rep.Pos, rep.FinalA, rep.FinalB)
	if rep.A != "" || rep.B != "" {
		fmt.Printf("--- %s @ %d\n%s", pathA, rep.Pos, rep.A)
		fmt.Printf("--- %s @ %d\n%s", pathB, rep.Pos, rep.B)
	}
	return fmt.Errorf("logs diverge")
}

func runREPL(path string, opts debug.Options) error {
	s, err := debug.Open(path, opts)
	if err != nil {
		return err
	}
	defer s.Close()

	hdr := s.Header()
	fmt.Printf("%s: mode=%s records=%d envseed=%d polseed=%d quantum=%d..%d\n",
		path, hdr.Mode, len(s.Records()), hdr.EnvSeed, hdr.PolicySeed, hdr.MinQuantum, hdr.MaxQuantum)
	fmt.Printf("position %d\n", s.Pos())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		quit, err := runCommand(s, cmd, rest)
		if err != nil {
			fmt.Printf("error: %v\n", err)
		}
		if quit {
			break
		}
	}
	return in.Err()
}

func runCommand(s *debug.Session, cmd, rest string) (quit bool, err error) {
	switch cmd {
	case "quit", "exit", "q":
		return true, nil
	case "help":
		fmt.Print(helpText)
	case "pos":
		fmt.Printf("position %d\n", s.Pos())
	case "goto", "g":
		n, perr := strconv.ParseUint(rest, 0, 64)
		if perr != nil {
			return false, fmt.Errorf("goto needs a position: %v", perr)
		}
		if err := s.Goto(n); err != nil {
			return false, err
		}
		fmt.Printf("position %d\n", s.Pos())
	case "step", "s", "rstep", "r":
		n := uint64(1)
		if rest != "" {
			if n, err = strconv.ParseUint(rest, 0, 64); err != nil {
				return false, fmt.Errorf("%s needs a count: %v", cmd, err)
			}
		}
		target := s.Pos() + n
		if cmd == "rstep" || cmd == "r" {
			if n >= s.Pos() {
				target = 0
			} else {
				target = s.Pos() - n
			}
		}
		if err := s.Goto(target); err != nil {
			return false, err
		}
		fmt.Printf("position %d\n", s.Pos())
	case "state", "dump":
		fmt.Print(s.Inspect().Text)
	case "threads":
		printSection(s, "thread ", "  frame ")
	case "locks":
		printSection(s, "monitor ")
	case "heap":
		printSection(s, "statics=[", "heap ")
	case "console":
		printSection(s, "console ")
	case "checksum":
		rep := s.Inspect()
		fmt.Printf("position %d checksum %016x\n", rep.Branches, rep.Checksum)
	case "final":
		if err := s.RunToEnd(); err != nil {
			return false, err
		}
		pos, runErr, _ := s.Final()
		if runErr != nil {
			fmt.Printf("final position %d (run error: %v)\n", pos, runErr)
		} else {
			fmt.Printf("final position %d\n", pos)
		}
	default:
		return false, fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return false, nil
}

// printSection prints the inspection lines carrying any of the prefixes, in
// rendering order, so filtered views stay deterministic too.
func printSection(s *debug.Session, prefixes ...string) {
	matched := false
	for _, line := range strings.SplitAfter(s.Inspect().Text, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				fmt.Print(line)
				matched = true
				break
			}
		}
	}
	if !matched {
		fmt.Println("(none)")
	}
}

const helpText = `commands:
  goto N      jump to global branch position N (g)
  step [N]    forward N positions, default 1 (s)
  rstep [N]   backward N positions, default 1 (r)
  pos         print the current position
  state       print the full deterministic state rendering (dump)
  threads     print threads with their frame stacks
  locks       print monitors: owner, entry count, queue, wait set
  heap        print statics and heap occupancy
  console     print the console written so far
  checksum    print the state checksum (position fingerprint)
  final       run to the end and print the final position
  quit        exit (q)
`
