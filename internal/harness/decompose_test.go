package harness

import (
	"testing"
	"time"

	"repro/internal/replication"
)

func TestDecompose(t *testing.T) {
	base := 100 * time.Millisecond
	m := ModeResult{
		PrimaryElapsed: 250 * time.Millisecond,
		Metrics: replication.PrimaryMetrics{
			Communication: 60 * time.Millisecond,
			Record:        20 * time.Millisecond,
			Pessimism:     30 * time.Millisecond,
		},
	}
	ov := m.Decompose(base)
	if ov.Communication != 0.6 || ov.Record != 0.2 || ov.Pessimism != 0.3 {
		t.Fatalf("components = %+v", ov)
	}
	// total delta 150ms - 110ms accounted = 40ms misc.
	if ov.Misc < 0.39 || ov.Misc > 0.41 {
		t.Fatalf("misc = %v, want ~0.4", ov.Misc)
	}
}

func TestDecomposeClampsNegativeMisc(t *testing.T) {
	// Measured components can exceed the wall-clock delta (overlap on a
	// single core); Misc clamps at zero rather than going negative.
	m := ModeResult{
		PrimaryElapsed: 110 * time.Millisecond,
		Metrics: replication.PrimaryMetrics{
			Communication: 50 * time.Millisecond,
		},
	}
	ov := m.Decompose(100 * time.Millisecond)
	if ov.Misc != 0 {
		t.Fatalf("misc = %v, want 0", ov.Misc)
	}
}

func TestDecomposeZeroBaseline(t *testing.T) {
	var m ModeResult
	if ov := m.Decompose(0); ov != (Overheads{}) {
		t.Fatalf("zero baseline should yield zero overheads: %+v", ov)
	}
}

func TestNormalized(t *testing.T) {
	r := &BenchResult{
		Baseline: 100 * time.Millisecond,
		Lock:     ModeResult{PrimaryElapsed: 240 * time.Millisecond, ReplayElapsed: 120 * time.Millisecond},
		Sched:    ModeResult{PrimaryElapsed: 160 * time.Millisecond, ReplayElapsed: 110 * time.Millisecond},
	}
	lockP, lockB, tsP, tsB := r.Normalized()
	if lockP != 2.4 || lockB != 1.2 || tsP != 1.6 || tsB != 1.1 {
		t.Fatalf("normalized = %v %v %v %v", lockP, lockB, tsP, tsB)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Scale != 1 || c.Repeats != 2 {
		t.Fatalf("defaults = %+v", c)
	}
	if len(c.Benchmarks) != 6 {
		t.Fatalf("benchmarks = %v", c.Benchmarks)
	}
	if c.NetPerKB == 0 || c.NetPerMsg == 0 {
		t.Fatal("network defaults missing")
	}
	var n Config
	n.NoNetwork = true
	n.fill()
	if n.NetPerKB != 0 || n.NetPerMsg != 0 {
		t.Fatal("NoNetwork should clear link costs")
	}
}
