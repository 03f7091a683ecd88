package replication

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// LogStore accumulates the records the backup logs during normal operation
// (the cold backup "simply logs the recovery information provided by the
// primary"). It is written by the backup's serve loop and read — after the
// primary fails — by the replay coordinators.
type LogStore struct {
	mu sync.Mutex
	// segments holds what each admitted frame (or load) contributed, as it
	// came: no growing array is re-copied, so what a run allocates here is
	// linear in its record count instead of stepping at growth points.
	segments []segment
	n        int
}

// segment is one frame's worth of log: records still encoded as the primary
// shipped them (the receive loop parsed every byte before acknowledging, and
// builds nothing), or already decoded (a loaded log). Exactly one is set.
type segment struct {
	raw  []byte
	recs []wire.Record
}

// NewLogStore returns an empty store.
func NewLogStore() *LogStore { return &LogStore{} }

// Append adds decoded records in arrival order; the store keeps the slice.
func (s *LogStore) Append(recs ...wire.Record) { s.add(segment{recs: recs}, len(recs)) }

// AppendRaw adds n encoded records that a wire Skip walk has validated, which
// is what lets Records build them later with no error to report.
func (s *LogStore) AppendRaw(payload []byte, n int) { s.add(segment{raw: payload}, n) }

// add stores nothing for an empty segment: a frame that held only a
// heartbeat must not grow an idle backup's store.
func (s *LogStore) add(seg segment, n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segments = append(s.segments, seg)
	s.n += n
}

// Len returns the number of stored records.
func (s *LogStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Records returns the stored records as one slice (a copy), building those
// that are still encoded.
func (s *LogStore) Records() []wire.Record {
	out := make([]wire.Record, 0, s.Len())
	_ = s.each(func(r wire.Record) error { out = append(out, r); return nil })
	return out
}

// each calls fn on every stored record in log order, building the encoded
// ones one at a time, and stops at fn's first error: recovery indexes the
// log where it lies instead of from a flat copy.
func (s *LogStore) each(fn func(wire.Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segments {
		for _, r := range seg.recs {
			if err := fn(r); err != nil {
				return err
			}
		}
		for d := wire.NewDecoder(seg.raw); d.More(); {
			r, err := d.Next()
			if err != nil {
				panic(fmt.Sprintf("log store: a validated segment does not decode: %v", err))
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// analysis is the indexed view of a log used during recovery. A cold
// backup builds it once from the stored records; a warm backup feeds it
// incrementally while the primary runs (open stays true until the primary
// halts or fails, and gating predicates treat a temporarily-empty queue as
// "wait", not "end of recovery").
type analysis struct {
	// open reports that more records may still arrive (warm backup).
	open bool
	// last is the most recently added record: if it is an output intent
	// when the log closes, that output's completion is uncertain.
	last wire.Record

	// Per-thread native-event queues (NativeResult and OutputIntent), in
	// log order.
	nativeQ map[string][]wire.Record
	// Per-thread lock acquisition record queues (lock mode).
	lockQ map[string][]*wire.LockAcq
	// Id maps indexed by (t_id, t_asn) (lock mode).
	idmaps map[string]map[uint64]*wire.IDMap
	// Logical interval records in log order (lock-interval mode).
	intervals []*wire.LockInterval
	// Scheduling records in log order (sched mode).
	switches []*wire.Switch
	// uncertain is the final record if it is an output intent: whether that
	// output completed is unknown (§3.4 / §4.4 test).
	uncertain *wire.OutputIntent

	nativePending int
	lockPending   int
	idmapPending  int
	maxLID        int64
	cleanHalt     bool
}

// newAnalysis returns an empty, open analysis ready for feeding.
func newAnalysis() *analysis {
	return &analysis{
		open:    true,
		nativeQ: make(map[string][]wire.Record),
		lockQ:   make(map[string][]*wire.LockAcq),
		idmaps:  make(map[string]map[uint64]*wire.IDMap),
	}
}

// add indexes one record.
func (a *analysis) add(r wire.Record) error {
	switch rec := r.(type) {
	case *wire.IDMap:
		byTASN, ok := a.idmaps[rec.TID]
		if !ok {
			byTASN = make(map[uint64]*wire.IDMap)
			a.idmaps[rec.TID] = byTASN
		}
		if _, dup := byTASN[rec.TASN]; dup {
			return fmt.Errorf("duplicate id map for (%s,%d)", rec.TID, rec.TASN)
		}
		byTASN[rec.TASN] = rec
		a.idmapPending++
		if rec.LID > a.maxLID {
			a.maxLID = rec.LID
		}
	case *wire.LockAcq:
		a.lockQ[rec.TID] = append(a.lockQ[rec.TID], rec)
		a.lockPending++
		if rec.LID > a.maxLID {
			a.maxLID = rec.LID
		}
	case *wire.LockInterval:
		a.intervals = append(a.intervals, rec)
	case *wire.Switch:
		a.switches = append(a.switches, rec)
	case *wire.NativeResult:
		a.nativeQ[rec.TID] = append(a.nativeQ[rec.TID], rec)
		a.nativePending++
	case *wire.OutputIntent:
		a.nativeQ[rec.TID] = append(a.nativeQ[rec.TID], rec)
		a.nativePending++
	case *wire.Heartbeat:
		return nil // liveness only
	case *wire.Halt:
		a.cleanHalt = true
	default:
		return fmt.Errorf("unexpected record type %T in log", r)
	}
	a.last = r
	return nil
}

// close marks the log complete: no more records will arrive, and a trailing
// output intent becomes the uncertain output (§3.4).
func (a *analysis) close() {
	a.open = false
	if intent, ok := a.last.(*wire.OutputIntent); ok {
		a.uncertain = intent
	}
}

// analyze indexes a complete log for cold recovery, fed by walk: recovery
// passes the store's in-place walk, tests a walk over their records.
func analyze(walk func(func(wire.Record) error) error) (*analysis, error) {
	a := newAnalysis()
	if err := walk(a.add); err != nil {
		return nil, err
	}
	a.close()
	return a, nil
}
