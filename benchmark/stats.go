package main

import (
	"runtime"
	"slices"
	"time"
)

// samples collects one metric's per-iteration values.
type samples []float64

// summary is what the report prints beside every metric's best sample.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// quantile interpolates linearly between closest ranks on sorted, non-empty
// values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s samples) summary() summary {
	if len(s) == 0 {
		return summary{}
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	return summary{
		Median: quantile(sorted, 0.5),
		Q1:     quantile(sorted, 0.25),
		Q3:     quantile(sorted, 0.75),
		N:      len(sorted),
	}
}

// best is the value a run reports for a metric: the best of its samples. On
// a shared box the noise is one-sided (a neighbour only ever slows a sample
// down) and comes in stretches longer than a whole run, so the best sample
// repeats from run to run where the median does not; the median and the
// quartiles are printed beside it.
func (s samples) best(higher bool) float64 {
	if len(s) == 0 {
		return 0
	}
	if higher {
		return slices.Max(s)
	}
	return slices.Min(s)
}

// timed runs fn with the collector quiesced first, so a collection owed by
// the previous phase is not billed to this one, and returns its wall time in
// seconds together with the Go heap bytes it allocated.
func timed(fn func() error) (wallS float64, allocBytes uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := seconds(fn)
	runtime.ReadMemStats(&after)
	return s, after.TotalAlloc - before.TotalAlloc, err
}

// seconds times fn without touching the collector (measurements that run
// back to back inside one phase).
func seconds(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}
