package vm

// Epoch-counter edge tests: on the fused stream the engine checks
// kill/budget/preemption only at block boundaries, so the places where that
// epoch approximation must collapse back to per-instruction precision — an
// instruction budget running out in the middle of a fused group, a preemption
// target landing exactly on a block edge — are pinned here by running the
// three columns (fused stream, step stream, oracle: oracle_test.go) over the
// same inputs and requiring identical observables. The replication-level
// variants (a replay cut between two progress flushes, kills on block edges
// under a live backup) live in the internal/simtest replay-seed table.

import (
	"errors"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/env"
)

// epochLoop compiles into pair- and wide-fused groups (load+const compare
// branches, load+const+alu+store chains), so small instruction budgets land
// at every offset inside fused groups across the sweep.
const epochLoop = `
method main 0 void
  iconst 0
  store 0
  iconst 0
  store 1
loop:
  load 1
  iconst 300
  icmp
  jz done
  load 0
  iconst 31
  imul
  load 1
  iadd
  store 0
  load 1
  iconst 1
  iadd
  store 1
  jmp loop
done:
  ret
end
`

// TestBudgetEdgeAcrossEngines sweeps MaxInstructions through every offset of
// the loop's first iterations — including values that exhaust the budget in
// the middle of a fused pair or wide group — and requires all three columns
// to fault identically: same error, same instruction count at the fault, same
// progress checksum when tracking.
func TestBudgetEdgeAcrossEngines(t *testing.T) {
	p := buildProgram(t, epochLoop)
	for _, track := range []bool{false, true} {
		for budget := uint64(1); budget <= 150; budget++ {
			type outcome struct {
				budgetErr bool
				otherErr  bool
				stats     Stats
				chk       uint64
			}
			run := func(e Engine) outcome {
				v, err := New(Config{
					Program: p, Env: env.New(1),
					MaxInstructions: budget,
					TrackProgress:   track,
					Dispatch:        e.D,
				})
				if err != nil {
					t.Fatalf("new vm (%v): %v", e, err)
				}
				runErr := e.run(v)
				o := outcome{
					budgetErr: errors.Is(runErr, ErrInstrBudget),
					otherErr:  runErr != nil && !errors.Is(runErr, ErrInstrBudget),
					stats:     v.Stats(),
				}
				for _, th := range v.Threads() {
					o.chk ^= th.Progress.Chk
				}
				return o
			}
			sw := run(OracleEngine)
			for _, e := range Engines {
				if got := run(e); got != sw {
					t.Fatalf("track=%v budget=%d: %v diverged from the oracle\noracle: %+v\n   got: %+v",
						track, budget, e, sw, got)
				}
			}
			if sw.otherErr {
				t.Fatalf("track=%v budget=%d: unexpected non-budget error", track, budget)
			}
		}
	}
}

// TestQuantumSweepAcrossEngines drives a two-thread lock workload under
// degenerate scheduling quanta — quantum 1 preempts at every single branch,
// so every slice boundary is a block edge — and requires all three columns to
// produce the same console, counters, and per-thread progress checksums.
func TestQuantumSweepAcrossEngines(t *testing.T) {
	src := printNative + `
static Main.lock
static Main.counter
class Lock dummy
method worker 1 void
  iconst 0
  store 1
wloop:
  load 1
  iconst 50
  icmp
  jz wdone
  gets Main.lock
  menter
  gets Main.counter
  iconst 1
  iadd
  puts Main.counter
  gets Main.lock
  mexit
  load 1
  iconst 1
  iadd
  store 1
  jmp wloop
wdone:
  ret
end
method main 0 void
  new Lock
  puts Main.lock
  iconst 0
  puts Main.counter
  iconst 0
  spawn worker 1
  store 0
  iconst 1
  spawn worker 1
  store 1
  load 0
  join
  load 1
  join
  gets Main.counter
  i2s
  call print
  ret
end
`
	p := buildProgram(t, src)
	quanta := []struct{ lo, hi uint64 }{{1, 1}, {2, 2}, {3, 7}, {16, 16}, {64, 512}}
	for _, q := range quanta {
		type outcome struct {
			console string
			stats   Stats
			chk     uint64
		}
		run := func(e Engine) outcome {
			environ := env.New(7)
			v, err := New(Config{
				Program: p, Env: environ,
				Coordinator:     NewDefaultCoordinator(NewSeededPolicy(11, q.lo, q.hi)),
				MaxInstructions: 10_000_000,
				TrackProgress:   true,
				Dispatch:        e.D,
			})
			if err != nil {
				t.Fatalf("new vm (%v): %v", e, err)
			}
			if err := e.run(v); err != nil {
				t.Fatalf("quantum %d-%d (%v): %v", q.lo, q.hi, e, err)
			}
			var o outcome
			for _, ln := range environ.Console().Lines() {
				o.console += ln + "\n"
			}
			o.stats = v.Stats()
			for _, th := range v.Threads() {
				o.chk ^= th.Progress.Chk
			}
			return o
		}
		sw := run(OracleEngine)
		for _, e := range Engines {
			if got := run(e); got != sw {
				t.Fatalf("quantum %d-%d: %v diverged from the oracle\noracle: %+v\n   got: %+v", q.lo, q.hi, e, sw, got)
			}
		}
		if sw.console != "100\n" {
			t.Fatalf("quantum %d-%d: console %q, want 100", q.lo, q.hi, sw.console)
		}
	}
}

// exactStop is where an exact slice left the main thread.
type exactStop struct {
	br, instr, chk uint64
	pc             int32
	depth          int
}

// tailScript issues its targets in order for the main thread — noting where
// each slice left it — then lets the program run out. at fires before every
// dispatch with the number of targets issued so far.
type tailScript struct {
	*DefaultCoordinator
	targets []SliceTarget
	issued  int
	stops   []exactStop
	at      func(v *VM, issued int)
}

func (p *tailScript) PickNext(v *VM, runnable []*Thread, _ *Thread) (*Thread, SliceTarget, error) {
	t := runnable[0]
	if p.issued > 0 && len(p.stops) < p.issued {
		f := t.Top()
		p.stops = append(p.stops, exactStop{br: t.BrCnt, instr: v.Stats().Instructions, chk: t.Progress.Chk, pc: f.PC, depth: len(f.Stack)})
	}
	if p.at != nil {
		p.at(v, p.issued)
	}
	if p.issued == len(p.targets) {
		return t, RunUntilBlocked(), nil
	}
	p.issued++
	return t, p.targets[p.issued-1], nil
}

// TestExactTargetSweepAcrossEngines replays a preemption at every (br_cnt, pc)
// of the loop's first iterations, tracked, in all three columns. The engine
// runs such a slice on the fused stream up to the block edge where br_cnt
// reaches the target and steps the tail, so the recorded position may lie at a
// group lead, in the interior of a wide group, or — for the (br_cnt, pc) pairs
// the program never visits — nowhere, in which case the slice overshoots by
// one branch. Wherever it stops, every column must stop there with the same
// instruction count and the same running checksum, and finish with the same
// counters.
func TestExactTargetSweepAcrossEngines(t *testing.T) {
	p := buildProgram(t, epochLoop)
	res, err := bytecode.Predecode(p)
	if err != nil {
		t.Fatal(err)
	}
	// From the second iteration on (br_cnt >= 2) control enters the loop body
	// by the back edge, so the groups that execute are the ones a walk from
	// the loop head finds.
	code, wide := res.Methods[p.Entry], res.Wide[p.Entry]
	head := int(code[len(code)-2].A) // the closing jmp's target
	interior := make([]bool, len(wide))
	for pc := head; pc < len(wide); {
		w := 1
		if wi, ok := bytecode.WideOpInfo(wide[pc].Op); ok {
			w = int(wi.Width)
			for i := pc + 1; i < pc+w; i++ {
				interior[i] = true
			}
		} else if wide[pc].Op >= bytecode.OpIAddC && wide[pc].Op <= bytecode.OpICmpL {
			w = 2
		}
		pc += w
	}

	landed, landedInterior := 0, 0
	for br := uint64(0); br <= 7; br++ {
		for pc := int32(0); pc < int32(len(wide)); pc++ {
			type outcome struct {
				stop  exactStop
				stats Stats
				chk   uint64
			}
			run := func(e Engine) outcome {
				probe := &tailScript{
					DefaultCoordinator: NewDefaultCoordinator(nil),
					targets:            []SliceTarget{{Br: br, Exact: true, Method: p.Entry, PC: pc, StopRunnable: true}},
				}
				v, err := New(Config{Program: p, Env: env.New(1), Coordinator: probe, TrackProgress: true, Dispatch: e.D})
				if err != nil {
					t.Fatalf("new vm (%v): %v", e, err)
				}
				if err := e.run(v); err != nil {
					t.Fatalf("br=%d pc=%d (%v): %v", br, pc, e, err)
				}
				if len(probe.stops) == 0 {
					t.Fatalf("br=%d pc=%d (%v): the exact slice ran the program out", br, pc, e)
				}
				return outcome{stop: probe.stops[0], stats: v.Stats(), chk: v.Threads()[0].Progress.Chk}
			}
			sw := run(OracleEngine)
			for _, e := range Engines {
				if got := run(e); got != sw {
					t.Fatalf("exact target br=%d pc=%d: %v diverged from the oracle\noracle: %+v\n   got: %+v", br, pc, e, sw, got)
				}
			}
			switch {
			case sw.stop.br == br && sw.stop.pc == pc:
				landed++
				if br >= 2 && interior[pc] {
					landedInterior++
				}
			case sw.stop.br != br+1:
				t.Fatalf("exact target br=%d pc=%d: missed slice stopped at br_cnt %d, want the next block edge", br, pc, sw.stop.br)
			}
		}
	}
	if landed < 30 || landedInterior < 10 {
		t.Fatalf("%d targets landed, %d of them inside a wide group; the sweep does not cover the stepped tail", landed, landedInterior)
	}
}

// TestCloneInsideExactTail suspends a replay between two stops that lie in one
// branch interval, both in the interior of wide groups: the first slice ends
// part-way down a stepped tail, and the slice after it starts already inside
// the stop epoch, so it is stepped from its first instruction. A VM cloned at
// that suspension (the debugger's checkpoints are such clones) must carry the
// step stream and finish exactly as its original does — same second stop,
// same counters, same checksum — in every column.
func TestCloneInsideExactTail(t *testing.T) {
	p := buildProgram(t, epochLoop)
	// br_cnt 3 is the second iteration's jz; pcs 10 and 15 sit inside the two
	// ALU groups of the loop body that follows it.
	targets := []SliceTarget{
		{Br: 3, Exact: true, Method: p.Entry, PC: 10, StopRunnable: true},
		{Br: 3, Exact: true, Method: p.Entry, PC: 15, StopRunnable: true},
	}
	type outcome struct {
		stops [2]exactStop
		stats Stats
		chk   uint64
	}
	finish := func(v *VM, probe *tailScript) outcome {
		if len(probe.stops) != 2 {
			t.Fatalf("%d stops recorded, want 2", len(probe.stops))
		}
		return outcome{stops: [2]exactStop(probe.stops), stats: v.Stats(), chk: v.Threads()[0].Progress.Chk}
	}
	run := func(e Engine) (orig, clone outcome) {
		probe := &tailScript{DefaultCoordinator: NewDefaultCoordinator(nil), targets: targets}
		probe.at = func(v *VM, issued int) {
			if issued != 1 {
				return
			}
			cp := &tailScript{DefaultCoordinator: NewDefaultCoordinator(nil), targets: targets, issued: 1, stops: probe.stops[:1:1]}
			cv := v.CloneSuspended(cp)
			if err := cv.ResumeSuspended(); err != nil {
				t.Fatalf("%v: clone: %v", e, err)
			}
			clone = finish(cv, cp)
		}
		v, err := New(Config{Program: p, Env: env.New(1), Coordinator: probe, TrackProgress: true, Dispatch: e.D})
		if err != nil {
			t.Fatalf("new vm (%v): %v", e, err)
		}
		if err := e.run(v); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return finish(v, probe), clone
	}
	want, _ := run(OracleEngine)
	for i, tg := range targets {
		if s := want.stops[i]; s.br != tg.Br || s.pc != tg.PC {
			t.Fatalf("stop %d landed at br_cnt %d pc %d, want %d/%d", i, s.br, s.pc, tg.Br, tg.PC)
		}
	}
	for _, e := range append([]Engine{OracleEngine}, Engines...) {
		orig, clone := run(e)
		if orig != want {
			t.Errorf("%v diverged from the oracle\noracle: %+v\n   got: %+v", e, want, orig)
		}
		if clone != orig {
			t.Errorf("%v: the clone diverged from its original\noriginal: %+v\n   clone: %+v", e, orig, clone)
		}
	}
}
