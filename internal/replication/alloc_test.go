package replication

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/vm"
)

// The primary's record path (coordinator callback → scratch record →
// Buffer.Append) runs once per monitor acquisition or thread switch; pin it
// to zero steady-state allocations so the replication overhead stays in the
// encode/ship buckets, not the garbage collector.

// allocPrimary builds a primary whose flush threshold is high enough that no
// frame ships during the measured window (frame shipping is amortised over
// FlushEvery records and measured separately).
func allocPrimary(t *testing.T, mode Mode) *Primary {
	t.Helper()
	a, _ := transport.Pipe(16)
	p, err := NewPrimary(PrimaryConfig{Mode: mode, Backend: pairOf(PairBackendConfig{Endpoint: a}), FlushEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrimaryLockRecordAllocFree(t *testing.T) {
	p := allocPrimary(t, ModeLock)
	th := &vm.Thread{VTID: "0.1", TASN: 41}
	mon := &vm.Monitor{LID: 7, LASN: 99}
	// Warm up the record buffer to steady-state capacity.
	for i := 0; i < 1024; i++ {
		if err := p.OnAcquired(nil, th, mon); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.OnAcquired(nil, th, mon); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("lock acquisition record allocs/run = %v, want 0", allocs)
	}
}

func TestPrimaryIDMapRecordAllocFree(t *testing.T) {
	p := allocPrimary(t, ModeLock)
	th := &vm.Thread{VTID: "0.1", TASN: 41}
	for i := 0; i < 1024; i++ {
		if _, _, err := p.AssignLID(nil, th, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := p.AssignLID(nil, th, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("id map record allocs/run = %v, want 0", allocs)
	}
}

func TestPrimaryIntervalRecordAllocFree(t *testing.T) {
	p := allocPrimary(t, ModeLockInterval)
	a := &vm.Thread{VTID: "0.1"}
	b := &vm.Thread{VTID: "0.2"}
	for i := 0; i < 1024; i++ {
		if err := p.OnAcquired(nil, a, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.OnAcquired(nil, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Alternating threads closes an interval (and appends its record) on
	// every call — the worst case for the interval path.
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.OnAcquired(nil, a, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.OnAcquired(nil, b, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("interval record allocs/run = %v, want 0", allocs)
	}
}
