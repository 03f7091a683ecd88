package harness

import (
	"math"
	"slices"
	"strings"
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
}

// TestLink: the modelled link on hand-computed counts, and, whenever every
// frame awaits its acknowledgement, the link model the benchmark spine
// reports as fig2.link_model_x term for term.
func TestLink(t *testing.T) {
	ship, ack := link(replication.PrimaryMetrics{FramesSent: 3, BytesSent: 2048, AcksAwaited: 2})
	if ship != 3*150*time.Microsecond+2*450*time.Microsecond || ack != 2*150*time.Microsecond {
		t.Fatalf("link(3 frames, 2 KiB, 2 acks) = %v + %v, want 1.35ms + 300µs", ship, ack)
	}
	for _, m := range []replication.PrimaryMetrics{
		{FramesSent: 702, BytesSent: 4_112_345, AcksAwaited: 702},
		{FramesSent: 137, BytesSent: 9_870, AcksAwaited: 137},
		{FramesSent: 1, BytesSent: 1, AcksAwaited: 1},
	} {
		ship, ack := link(m)
		want := 2*float64(m.FramesSent)*150e-6 + float64(m.BytesSent)/1024*450e-6
		if got := (ship + ack).Seconds(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%d frames, %d bytes: ship+ack = %vs, the spine's model %vs", m.FramesSent, m.BytesSent, got, want)
		}
	}
}

// TestFigure2RawAndLinked: every primary column of Figure 2 appears twice,
// as measured and with the modelled link, and the second is never the
// smaller.
func TestFigure2RawAndLinked(t *testing.T) {
	r := &BenchResult{
		Name:     "db",
		Baseline: 100 * time.Millisecond,
		Lock: ModeResult{PrimaryElapsed: 200 * time.Millisecond, ReplayElapsed: 120 * time.Millisecond,
			Metrics: replication.PrimaryMetrics{FramesSent: 10, BytesSent: 10240, AcksAwaited: 10}},
		Sched: ModeResult{PrimaryElapsed: 150 * time.Millisecond, ReplayElapsed: 110 * time.Millisecond},
	}
	// benchmark, TS primary, +link, TS backup, Lock primary, +link, Lock
	// backup: 200ms + 10·300µs + 10 KB·450µs = 207.5ms.
	row := strings.Fields(strings.Split(Figure2([]*BenchResult{r}), "\n")[2])
	want := []string{"db", "1.50", "1.50", "1.10", "2.00", "2.08", "1.20"}
	if len(row) < len(want) || !slices.Equal(row[:len(want)], want) {
		t.Fatalf("Figure 2 row = %q, want %q", row, want)
	}
	for _, mr := range []ModeResult{r.Lock, r.Sched} {
		if mr.linked() < mr.PrimaryElapsed {
			t.Errorf("modelled %v below raw %v", mr.linked(), mr.PrimaryElapsed)
		}
	}
}
