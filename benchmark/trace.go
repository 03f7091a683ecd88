package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call across a layer boundary, recorded by the benchmark around
// the call (spans inside the program are a later change). Parent is the id
// of the span that caused it, -1 for a root; spans of one iteration share
// Iteration.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run shares code with the traced one.
// The consensus replicas record from their own goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, iteration int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Iteration: iteration, StartNS: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// in wraps fn in a span and hands it the span id for its children.
func (t *tracer) in(name string, parent, iteration int, fn func(id int) error) error {
	id := t.begin(name, parent, iteration)
	err := fn(id)
	t.end(id)
	return err
}

// spanTotals is one span name's time within one iteration. Self is the total
// minus the part of each span its children cover (overlapping children, as
// the concurrent consensus replicas produce, are counted once).
type spanTotals struct {
	Count          int
	TotalS, SelfS  float64
	perIterationNS map[int]int64
}

// totals aggregates spans by name.
func (t *tracer) totals() map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		tot := out[s.Name]
		if tot == nil {
			tot = &spanTotals{perIterationNS: make(map[int]int64)}
			out[s.Name] = tot
		}
		dur := s.EndNS - s.StartNS
		tot.Count++
		tot.TotalS += float64(dur) / 1e9
		tot.SelfS += float64(dur-covered(s, children[s.ID])) / 1e9
		tot.perIterationNS[s.Iteration] += dur
	}
	return out
}

// covered is the length of the union of kids' intervals, clipped to parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var sum int64
	edge := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, edge), min(k.EndNS, parent.EndNS)
		if hi > lo {
			sum += hi - lo
			edge = hi
		}
	}
	return sum
}

// perIteration returns one value per iteration, in seconds: the summed
// duration of every span of this name in that iteration.
func (tot *spanTotals) perIteration() samples {
	iters := make([]int, 0, len(tot.perIterationNS))
	for it := range tot.perIterationNS {
		iters = append(iters, it)
	}
	sort.Ints(iters)
	var out samples
	for _, it := range iters {
		out = append(out, float64(tot.perIterationNS[it])/1e9)
	}
	return out
}

// traceFile is the JSON document -trace-out writes.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Totals   map[string]traceTotals `json:"totals_by_name"`
	Spans    []span                 `json:"spans"`
}

type traceTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	doc := traceFile{Workload: workload, Seed: seed, Totals: make(map[string]traceTotals)}
	for name, tot := range t.totals() {
		doc.Totals[name] = traceTotals{Count: tot.Count, TotalS: tot.TotalS, SelfS: tot.SelfS}
	}
	t.mu.Lock()
	doc.Spans = t.spans
	t.mu.Unlock()
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
