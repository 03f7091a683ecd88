package replication

import (
	"testing"

	"repro/internal/env"
	"repro/internal/heap"
	"repro/internal/transport"
	"repro/internal/vm"
)

// The primary's record path (coordinator callback → scratch record →
// Buffer.Append) runs per lock acquisition, switch, native result or output
// commit; pin it to zero steady-state allocations so the replication
// overhead stays in the encode/ship buckets, not the garbage collector.

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

// ackAll is a backend that commits every ship at once and keeps nothing, so
// what an output commit allocates is the primary's own.
type ackAll struct{}

func (ackAll) Ship([]byte, bool) error { return nil }
func (ackAll) Epoch() uint64           { return 0 }
func (ackAll) Lost() bool              { return false }
func (ackAll) Quiesce()                {}
func (ackAll) Close() error            { return nil }

// TestPrimaryNativeRecordsAllocFree: a devices-handled draw's result record
// (its handler marker included) and an output commit's intent reuse scratch
// records as the lock records do.
func TestPrimaryNativeRecordsAllocFree(t *testing.T) {
	p, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: ackAll{}, FlushEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	v := replayVM(t, env.New(1))
	th := &vm.Thread{VTID: "0.1", NatSeq: 3}
	draw, out, results := defOf(t, "sys.rand"), defOf(t, "io.print"), []heap.Value{heap.IntVal(7)}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"LogNativeResult(sys.rand)", func() error { return p.LogNativeResult(v, th, draw, nil, results) }},
		{"CommitOutput(io.print)", func() error { return p.CommitOutput(th, out) }},
	} {
		for i := 0; i < 1024; i++ {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocs/run = %v, want 0", tc.name, allocs)
		}
	}
}
