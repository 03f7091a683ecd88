package debug_test

import (
	"os"
	"path/filepath"
	"testing"

	ftvm "repro"
	"repro/internal/debug"
	"repro/internal/replication"
	"repro/internal/vm"
)

// A program with contended locks, file output and console writes: every
// source of nondeterminism the log captures, so navigating its replay
// exercises the full stepper surface.
const dbgProgram = `
class Acc { n int; }
var acc Acc;
func worker(k int) {
	for (var i int = 0; i < 120; i = i + 1) {
		lock (acc) { acc.n = acc.n + k; }
	}
}
func main() {
	acc = new Acc;
	var fd int = fopen("out.dat", 1);
	var a thread = spawn worker(1);
	var b thread = spawn worker(2);
	join(a);
	join(b);
	fwrite(fd, "n=" + itoa(acc.n));
	fclose(fd);
	send("result:" + itoa(acc.n));
	print("done " + itoa(acc.n));
}
`

// capture runs the program replicated, kills the primary mid-run, and
// returns the path of the .ftlog the run captured.
func capture(t *testing.T, mode ftvm.Mode, envSeed, policySeed int64, kill int) string {
	t.Helper()
	prog, err := ftvm.CompileSource("dbg", dbgProgram)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	path := filepath.Join(t.TempDir(), "run.ftlog")
	if _, err := ftvm.RunWithFailover(prog, mode, ftvm.KillAfterRecords(kill), ftvm.Options{
		EnvSeed:    envSeed,
		PolicySeed: policySeed,
		MinQuantum: 64,
		MaxQuantum: 256,
		CaptureLog: path,
	}); err != nil {
		t.Fatalf("replicated run: %v", err)
	}
	return path
}

// positionsFor builds a probe table spanning the replay: the first few
// scheduling decisions, odd interior positions (inside fused superinstruction
// groups), quantum-sized offsets (slice/epoch edges), and the final edge.
func positionsFor(final uint64) []uint64 {
	cand := []uint64{0, 1, 2, 3, 7, 17, 63, 64, 65, final / 4, final/2 - 1, final / 2, final/2 + 1, 3 * final / 4, final - 2, final - 1, final}
	var out []uint64
	seen := map[uint64]bool{}
	for _, p := range cand {
		if p <= final && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func TestGotoMatchesFreshReplay(t *testing.T) {
	for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			path := capture(t, mode, 7, 11, 40)

			nav, err := debug.Open(path, debug.Options{Every: 128})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer nav.Close()
			if err := nav.RunToEnd(); err != nil {
				t.Fatalf("run to end: %v", err)
			}
			final, _, known := nav.Final()
			if !known || final == 0 {
				t.Fatalf("final position not discovered (final=%d known=%v)", final, known)
			}

			// Ground truth: an independent session per position, replaying
			// forward from zero with no backward navigation involved.
			positions := positionsFor(final)
			want := make(map[uint64]string, len(positions))
			for _, pos := range positions {
				fresh, err := debug.Open(path, debug.Options{Every: 1 << 30})
				if err != nil {
					t.Fatalf("open fresh: %v", err)
				}
				if err := fresh.Goto(pos); err != nil {
					t.Fatalf("fresh goto %d: %v", pos, err)
				}
				if got := fresh.Pos(); got != pos {
					t.Fatalf("fresh goto %d landed at %d", pos, got)
				}
				want[pos] = fresh.Inspect().Text
				fresh.Close()
			}

			// The navigating session revisits every position backward (each
			// jump restores a checkpoint clone) and then re-steps across each
			// probe; state must be byte-identical to the fresh replays.
			for i := len(positions) - 1; i >= 0; i-- {
				pos := positions[i]
				if err := nav.Goto(pos); err != nil {
					t.Fatalf("goto %d: %v", pos, err)
				}
				if got := nav.Pos(); got != pos {
					t.Fatalf("goto %d landed at %d", pos, got)
				}
				if got := nav.Inspect().Text; got != want[pos] {
					t.Errorf("position %d: navigated state differs from fresh replay\nnavigated:\n%s\nfresh:\n%s", pos, got, want[pos])
				}
			}
			for _, pos := range []uint64{1, final / 2, final - 1} {
				if err := nav.Goto(pos); err != nil {
					t.Fatalf("goto %d: %v", pos, err)
				}
				if err := nav.Step(); err != nil {
					t.Fatalf("step from %d: %v", pos, err)
				}
				if err := nav.RStep(); err != nil {
					t.Fatalf("rstep back to %d: %v", pos, err)
				}
				if got, want := nav.Inspect().Text, want[pos]; got != want {
					t.Errorf("step/rstep around %d drifted", pos)
				}
			}
		})
	}
}

// TestDualEnginePositionEquivalence is the dual-engine gate: one captured
// log replayed to the same positions under the threaded and switch
// interpreters must expose identical inspection state everywhere — the
// engines' bit-identical contract extended to every intermediate position,
// including fused-group interiors and slice-epoch edges.
func TestDualEnginePositionEquivalence(t *testing.T) {
	for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched} {
		t.Run(mode.String(), func(t *testing.T) {
			path := capture(t, mode, 5, 9, 40)

			open := func(d vm.Dispatch) *debug.Session {
				s, err := debug.Open(path, debug.Options{Every: 256, Dispatch: d, OverrideDispatch: true})
				if err != nil {
					t.Fatalf("open dispatch %v: %v", d, err)
				}
				return s
			}
			th := open(vm.DispatchThreaded)
			defer th.Close()
			sw := open(vm.DispatchSwitch)
			defer sw.Close()

			if err := th.RunToEnd(); err != nil {
				t.Fatalf("threaded run to end: %v", err)
			}
			if err := sw.RunToEnd(); err != nil {
				t.Fatalf("switch run to end: %v", err)
			}
			tf, _, _ := th.Final()
			sf, _, _ := sw.Final()
			if tf != sf {
				t.Fatalf("final positions differ: threaded %d, switch %d", tf, sf)
			}

			for _, pos := range positionsFor(tf) {
				if err := th.Goto(pos); err != nil {
					t.Fatalf("threaded goto %d: %v", pos, err)
				}
				if err := sw.Goto(pos); err != nil {
					t.Fatalf("switch goto %d: %v", pos, err)
				}
				a, b := th.Inspect(), sw.Inspect()
				if a.Text != b.Text || a.Checksum != b.Checksum {
					t.Errorf("position %d: engines diverge\nthreaded:\n%s\nswitch:\n%s", pos, a.Text, b.Text)
				}
			}
		})
	}
}

func TestDiffIdenticalLogs(t *testing.T) {
	path := capture(t, ftvm.ModeLock, 3, 13, 40)
	a, err := debug.Open(path, debug.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := debug.Open(path, debug.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rep, err := debug.Diff(a, b)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if rep.Diverged {
		t.Fatalf("identical logs reported diverged at %d", rep.Pos)
	}
	if rep.FinalA != rep.FinalB {
		t.Fatalf("identical logs, different finals: %d vs %d", rep.FinalA, rep.FinalB)
	}
}

func TestDiffFindsFirstDivergence(t *testing.T) {
	pa := capture(t, ftvm.ModeLock, 3, 13, 40)
	pb := capture(t, ftvm.ModeLock, 3, 14, 40)
	a, err := debug.Open(pa, debug.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := debug.Open(pb, debug.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rep, err := debug.Diff(a, b)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !rep.Diverged {
		t.Fatal("different policy seeds did not diverge")
	}
	if rep.A == rep.B {
		t.Fatalf("diverging position %d renders identically", rep.Pos)
	}
	// First divergence: states still agree one position earlier.
	if rep.Pos > 0 {
		if err := a.Goto(rep.Pos - 1); err != nil {
			t.Fatal(err)
		}
		if err := b.Goto(rep.Pos - 1); err != nil {
			t.Fatal(err)
		}
		if a.Inspect().Checksum != b.Inspect().Checksum {
			t.Fatalf("states already differ at %d; %d is not the first divergence", rep.Pos-1, rep.Pos)
		}
	}
}

// TestCaptureHeaderRoundTrip checks the .ftlog header survives the disk
// format and the program hash guards the embedded image.
func TestCaptureHeaderRoundTrip(t *testing.T) {
	path := capture(t, ftvm.ModeSched, 21, 31, 40)
	l, err := replication.ReadLogFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if l.Header.Mode != ftvm.ModeSched {
		t.Errorf("mode = %v, want %v", l.Header.Mode, ftvm.ModeSched)
	}
	if l.Header.EnvSeed != 21 {
		t.Errorf("env seed = %d, want 21", l.Header.EnvSeed)
	}
	if l.Header.MinQuantum != 64 || l.Header.MaxQuantum != 256 {
		t.Errorf("quanta = %d/%d, want 64/256", l.Header.MinQuantum, l.Header.MaxQuantum)
	}
	if len(l.Records) == 0 {
		t.Fatal("no records captured")
	}
	if l.Prog == nil || len(l.Prog.Methods) == 0 {
		t.Fatal("program not embedded")
	}
}

// TestEveryCutOfACaptureOpensOrErrs cuts one small capture per mode at every
// byte, the way a crash mid-write leaves an .ftlog behind, and hands each
// prefix to the debugger: every cut must give an error or a working session —
// open, step, run to the end — and never a panic. Most cuts land inside the
// header, the program image or a frame and fail to decode; a cut on a frame
// boundary is a shorter, valid log, whose replay runs out of records early.
// (FuzzDecodeLog cuts only at section boundaries and never replays.)
func TestEveryCutOfACaptureOpensOrErrs(t *testing.T) {
	for _, mode := range []ftvm.Mode{ftvm.ModeLock, ftvm.ModeSched, ftvm.ModeLockInterval} {
		data, err := os.ReadFile(capture(t, mode, 7, 11, 12))
		if err != nil {
			t.Fatal(err)
		}
		opened := 0
		for cut := 0; cut <= len(data); cut++ {
			l, err := replication.DecodeLog(data[:cut])
			if err != nil {
				continue
			}
			s, err := debug.OpenLog(l, debug.Options{Every: 64})
			if err != nil {
				continue
			}
			opened++
			err = s.Step()
			if err == nil {
				err = s.RunToEnd()
			}
			if err != nil {
				t.Errorf("%v, cut at %d of %d bytes: the session opened but does not run: %v", mode, cut, len(data), err)
			}
			s.Close()
		}
		if opened < 2 {
			t.Fatalf("%v: %d of %d cuts opened a session; want the whole capture and a shorter one at least", mode, opened, len(data)+1)
		}
		t.Logf("%v: %d of %d cuts opened a session", mode, opened, len(data)+1)
	}
}
