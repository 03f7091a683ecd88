package replication

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/env"
	"repro/internal/minilang"
	"repro/internal/vm"
)

// progressRecorder notes, at every context switch, the progress indicators a
// scheduling record would carry for the descheduled thread.
type progressRecorder struct {
	*vm.DefaultCoordinator
	t    *testing.T
	rows []string
	seen map[vm.ThreadState]int
}

func (p *progressRecorder) OnDescheduled(_ *vm.VM, prev, _ *vm.Thread) error {
	if prev == nil {
		return nil
	}
	br, method, pc, mon, lasn := snapshotProgress(prev)
	st := prev.State()
	p.seen[st]++
	p.rows = append(p.rows, fmt.Sprintf("%s %s br=%d at=%d:%d mon=%d lasn=%d", prev.VTID, st, br, method, pc, mon, lasn))
	switch st {
	case vm.StateDead:
		if method != -1 || pc != -1 {
			p.t.Errorf("dead %s at %d:%d, want -1:-1", prev.VTID, method, pc)
		}
	case vm.StateBlocked, vm.StateWaiting:
		// Both park on a monitor somebody acquired before them.
		if lasn == 0 {
			p.t.Errorf("%s %s with l_asn 0", st, prev.VTID)
		}
	}
	return nil
}

// progressGolden is the FNV-1a hash of the row sequence below as the parent
// of the lazy-indicator change produced it from the per-bytecode snapshot
// fields (ProgressSnapshot.{Method,PC,BrCnt,MonCnt}, since deleted): reading
// the indicators off the descheduled thread must give exactly what
// publishing them after every bytecode gave.
const progressGolden = 0x951550fca0ea8b59

// TestProgressSnapshotConsistency pins what snapshotProgress reads at every
// deschedule of a producer/consumer run — preempted, blocked on a monitor,
// waiting, and dead (-1/-1) threads all occur — to the values the deleted
// per-bytecode fields held, on both engines, tracked and untracked.
func TestProgressSnapshotConsistency(t *testing.T) {
	prog, err := minilang.Compile("condvar", condvarProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []vm.Dispatch{vm.DispatchThreaded, vm.DispatchSwitch} {
		for _, track := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/track=%v", d, track), func(t *testing.T) {
				rec := &progressRecorder{
					DefaultCoordinator: vm.NewDefaultCoordinator(vm.NewSeededPolicy(3, 2, 9)),
					t:                  t,
					seen:               map[vm.ThreadState]int{},
				}
				v, err := vm.New(vm.Config{Program: prog, Env: env.New(1), Coordinator: rec, TrackProgress: track, Dispatch: d})
				if err != nil {
					t.Fatal(err)
				}
				if err := v.Run(); err != nil {
					t.Fatal(err)
				}
				for _, st := range []vm.ThreadState{vm.StateRunnable, vm.StateBlocked, vm.StateWaiting, vm.StateDead} {
					if rec.seen[st] == 0 {
						t.Errorf("no %s thread was ever descheduled; the case is not covered", st)
					}
				}
				h := fnv.New64a()
				for _, r := range rec.rows {
					h.Write([]byte(r + "\n"))
				}
				if got := h.Sum64(); got != progressGolden {
					t.Errorf("%d deschedules hash to %#x, want %#x", len(rec.rows), got, uint64(progressGolden))
				}
			})
		}
	}
}
