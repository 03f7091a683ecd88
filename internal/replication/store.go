package replication

import (
	"fmt"
	"sync"

	"repro/internal/simtest/clock"
	"repro/internal/wire"
)

// LogStore accumulates the records the backup logs during normal operation
// (the cold backup "simply logs the recovery information provided by the
// primary"). It is written by the backup's serve loop and read by replay:
// once the log has ended (Recover), or while it grows (RunWarm).
type LogStore struct {
	mu sync.Mutex
	// segments holds what each admitted frame (or load) contributed, as it
	// came: no growing array is re-copied, so what a run allocates here is
	// linear in its record count instead of stepping at growth points.
	segments []segment
	n        int
	// sealed is set once the serve loop has ended: nothing more is stored.
	sealed bool
	// wake, when set, is signalled by every add and by seal: a warm replay
	// parks on it while it waits for the log to grow.
	wake clock.WaitSlot
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
	if s.wake != nil {
		s.wake.Signal()
	}
}

// seal records that the serve loop has ended, and wakes a warm replay.
func (s *LogStore) seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
	if s.wake != nil {
		s.wake.Signal()
	}
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
	_, _, err := s.eachFrom(0, fn)
	return err
}

// eachFrom is each over the segments from index from on, the cursor a warm
// replay pulls with. It returns the index past the last segment walked and
// whether the store is sealed, in which case the walk reached the log's end.
func (s *LogStore) eachFrom(from int, fn func(wire.Record) error) (next int, sealed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seg := range s.segments[from:] {
		for _, r := range seg.recs {
			if err := fn(r); err != nil {
				return from + i, false, err
			}
		}
		for d := wire.NewDecoder(seg.raw); d.More(); {
			r, err := d.Next()
			if err != nil {
				panic(fmt.Sprintf("log store: a validated segment does not decode: %v", err))
			}
			if err := fn(r); err != nil {
				return from + i, false, err
			}
		}
	}
	return len(s.segments), s.sealed, nil
}

// analysis is the indexed view of a log used during recovery. A cold
// backup builds it once from the stored records; a warm replay pulls into it
// while the log grows (open stays true until the serve loop has ended, and
// gating predicates treat a temporarily-empty queue as "wait", not "end of
// recovery").
type analysis struct {
	// open reports that more records may still arrive (warm replay).
	open bool
	// last is the most recently added record: if it is an output intent
	// when the log closes, that output's completion is uncertain.
	last wire.Record

	// threads holds each thread's share of the log, by t_id. A replay
	// coordinator looks a thread's record up here once and then finds it by
	// the thread's slot (nativeReplay.threadLog).
	threads map[string]*threadLog
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

// threadLog is one thread's share of the log, each part in log order:
// its native events (NativeResult and OutputIntent) and its lock
// acquisitions (lock mode), both consumed from the front, and its id maps by
// t_asn (lock mode), deleted as they are matched.
type threadLog struct {
	tid    string
	native []wire.Record
	lock   []*wire.LockAcq
	idmaps map[uint64]*wire.IDMap
}

// newAnalysis returns an empty, open analysis ready for feeding.
func newAnalysis() *analysis {
	return &analysis{open: true, threads: make(map[string]*threadLog)}
}

// thread returns tid's record, made empty on first use: records a warm
// replay indexes later land in the same record.
func (a *analysis) thread(tid string) *threadLog {
	tl := a.threads[tid]
	if tl == nil {
		tl = &threadLog{tid: tid}
		a.threads[tid] = tl
	}
	return tl
}

// add indexes one record.
func (a *analysis) add(r wire.Record) error {
	switch rec := r.(type) {
	case *wire.IDMap:
		tl := a.thread(rec.TID)
		if tl.idmaps == nil {
			tl.idmaps = make(map[uint64]*wire.IDMap)
		}
		if _, dup := tl.idmaps[rec.TASN]; dup {
			return fmt.Errorf("duplicate id map for (%s,%d)", rec.TID, rec.TASN)
		}
		tl.idmaps[rec.TASN] = rec
		a.idmapPending++
		if rec.LID > a.maxLID {
			a.maxLID = rec.LID
		}
	case *wire.LockAcq:
		tl := a.thread(rec.TID)
		tl.lock = append(tl.lock, rec)
		a.lockPending++
		if rec.LID > a.maxLID {
			a.maxLID = rec.LID
		}
	case *wire.LockInterval:
		a.intervals = append(a.intervals, rec)
	case *wire.Switch:
		a.switches = append(a.switches, rec)
	case *wire.NativeResult:
		tl := a.thread(rec.TID)
		tl.native = append(tl.native, rec)
		a.nativePending++
	case *wire.OutputIntent:
		tl := a.thread(rec.TID)
		tl.native = append(tl.native, rec)
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
