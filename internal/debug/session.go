package debug

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/env"
	"repro/internal/replication"
	"repro/internal/vm"
	"repro/internal/wire"
)

// A Session is a time-travel view over one captured .ftlog: it can place
// the replayed machine at any global branch position and expose its state
// there. Positions are global branch counts — the paper's logical clock —
// so "position k" is the instant the machine has executed exactly k branch
// instructions across all threads.
//
// Forward motion replays; backward motion restores the nearest earlier
// checkpoint (a deep machine clone taken every Every branches on first
// visit) and replays forward from it, so reverse-stepping costs at most one
// checkpoint interval of re-execution rather than a replay from zero.
type Session struct {
	log  *replication.Log
	opts Options

	cur    *machine
	snaps  []*snapshot // ascending position; snaps[0] is position 0
	halted bool        // current machine ran to completion

	finalKnown bool
	finalPos   uint64
	finalErr   error
}

// Options configures a session.
type Options struct {
	// Every is the checkpoint interval in global branches (default 1024).
	Every uint64
	// Dispatch overrides the interpreter stream recorded in the log header
	// when OverrideDispatch is set — the dual-mode equivalence gate replays
	// one log on both streams and compares positions.
	Dispatch         vm.Dispatch
	OverrideDispatch bool
}

// DefaultEvery is the default checkpoint interval.
const DefaultEvery = 1024

// machine is one live replay: a VM paused (or finished) under a stepper.
type machine struct {
	v    *vm.VM
	eng  *replication.ReplayEngine
	st   *stepper
	done chan error
}

// snapshot is a reusable checkpoint: suspended clones that are themselves
// cloned again on every restore, so one checkpoint serves any number of
// backward jumps.
type snapshot struct {
	pos   uint64
	v     *vm.VM
	eng   *replication.ReplayEngine
	cache stepCache
}

// Open reads an .ftlog capture and places the machine at position 0.
func Open(path string, opts Options) (*Session, error) {
	l, err := replication.ReadLogFile(path)
	if err != nil {
		return nil, err
	}
	return OpenLog(l, opts)
}

// OpenLog opens a session over an already-decoded capture.
func OpenLog(l *replication.Log, opts Options) (*Session, error) {
	if opts.Every == 0 {
		opts.Every = DefaultEvery
	}
	s := &Session{log: l, opts: opts}
	if err := s.boot(); err != nil {
		return nil, err
	}
	if err := s.takeSnapshot(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// boot builds a fresh machine from the log's initial conditions through the
// backup's own replay set-up (replication.ReplayEngine: engine, VM,
// handler-state install, volatile restore) with the stepper wrapped around
// its coordinator, then runs it — pausing immediately at position 0.
func (s *Session) boot() error {
	hdr := s.log.Header
	policy := vm.NewSeededPolicy(hdr.PolicySeed, hdr.MinQuantum, hdr.MaxQuantum)
	eng, err := replication.NewReplayEngine(hdr.Mode, s.log.Records, nil, nil, policy)
	if err != nil {
		return err
	}
	st := newStepper(eng.Coordinator())
	dispatch := hdr.Dispatch
	if s.opts.OverrideDispatch {
		dispatch = s.opts.Dispatch
	}
	v, err := eng.NewVM(replication.RecoverConfig{
		Program:         s.log.Prog,
		Env:             env.New(hdr.EnvSeed),
		GCThreshold:     int(hdr.GCThreshold),
		MaxInstructions: hdr.MaxInstructions,
		Dispatch:        dispatch,
	}, st)
	if err != nil {
		return fmt.Errorf("debug vm: %w", err)
	}
	if err := eng.Restore(v); err != nil {
		return err
	}
	s.start(&machine{v: v, eng: eng, st: st, done: make(chan error, 1)}, func() error {
		return v.Run()
	})
	return nil
}

// start launches the machine's run goroutine (initial pause target is 0,
// stopping at the very first scheduling decision) and waits for it to
// settle — paused at the target or finished.
func (s *Session) start(m *machine, run func() error) {
	s.cur = m
	s.halted = false
	go func() {
		err := run()
		m.st.markDone()
		m.done <- err
	}()
	s.settle()
}

// settle waits until the current machine is paused or finished, recording
// the final position on completion.
func (s *Session) settle() {
	if s.cur.st.waitPaused() {
		return
	}
	s.halted = true
	err := <-s.cur.done
	if !s.finalKnown {
		s.finalKnown = true
		s.finalPos = s.cur.v.GlobalBranches()
		s.finalErr = err
	}
}

// Pos returns the machine's current global branch position.
func (s *Session) Pos() uint64 { return s.cur.v.GlobalBranches() }

// Final reports the end of the replay, once discovered: the position the
// machine finishes at, the run's outcome, and whether it is known yet (it
// becomes known the first time the session runs past the last position).
func (s *Session) Final() (pos uint64, runErr error, known bool) {
	return s.finalPos, s.finalErr, s.finalKnown
}

// Inspect renders the machine state at the current position.
func (s *Session) Inspect() vm.InspectReport { return s.cur.v.Inspect() }

// VM exposes the paused machine for read-only inspection.
func (s *Session) VM() *vm.VM { return s.cur.v }

// Header returns the log header the session replays under.
func (s *Session) Header() replication.LogHeader { return s.log.Header }

// Records returns the log's replication records (Halt/Heartbeat stripped at
// capture time).
func (s *Session) Records() []wire.Record { return s.log.Records }

// Goto places the machine at position pos: forward replay, or checkpoint
// restore + replay when pos is behind the current position. Positions past
// the end of the execution settle at the final position.
func (s *Session) Goto(pos uint64) error {
	if pos < s.Pos() {
		if err := s.restoreNearest(pos); err != nil {
			return err
		}
	}
	return s.advanceTo(pos)
}

// Step advances one branch (no-op at the end of the execution).
func (s *Session) Step() error { return s.Goto(s.Pos() + 1) }

// RStep moves one branch backward (no-op at position 0).
func (s *Session) RStep() error {
	p := s.Pos()
	if p == 0 {
		return nil
	}
	return s.Goto(p - 1)
}

// RunToEnd replays to the final position.
func (s *Session) RunToEnd() error { return s.Goto(math.MaxUint64) }

// Close aborts the live machine. The session is unusable afterwards.
func (s *Session) Close() {
	if s.cur == nil {
		return
	}
	if !s.halted {
		s.cur.st.abort()
		<-s.cur.done
		s.halted = true
	}
}

// advanceTo replays forward to pos, dropping checkpoints at every multiple
// of the checkpoint interval passed for the first time.
func (s *Session) advanceTo(pos uint64) error {
	for {
		g := s.Pos()
		if g >= pos || s.halted {
			return nil
		}
		next := pos
		if nc := (g/s.opts.Every + 1) * s.opts.Every; nc < next {
			next = nc
		}
		s.cur.st.resumeTo(next)
		s.settle()
		if s.halted {
			return nil
		}
		if p := s.Pos(); p%s.opts.Every == 0 && !s.haveSnapshot(p) {
			if err := s.takeSnapshot(); err != nil {
				return err
			}
		}
	}
}

func (s *Session) haveSnapshot(pos uint64) bool {
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].pos >= pos })
	return i < len(s.snaps) && s.snaps[i].pos == pos
}

// takeSnapshot checkpoints the paused machine: suspended VM clone plus the
// replay engine's cursor state and the stepper's clamp memo.
func (s *Session) takeSnapshot() error {
	eng, err := s.cur.eng.Clone()
	if err != nil {
		return fmt.Errorf("checkpoint engine: %w", err)
	}
	sn := &snapshot{
		pos:   s.Pos(),
		v:     s.cur.v.CloneSuspended(nil),
		eng:   eng,
		cache: s.cur.st.cacheState(),
	}
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].pos >= sn.pos })
	s.snaps = append(s.snaps, nil)
	copy(s.snaps[i+1:], s.snaps[i:])
	s.snaps[i] = sn
	return nil
}

// restoreNearest replaces the live machine with a clone of the best
// checkpoint at or before pos (position 0 always exists).
func (s *Session) restoreNearest(pos uint64) error {
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].pos > pos })
	sn := s.snaps[i-1]

	eng, err := sn.eng.Clone()
	if err != nil {
		return fmt.Errorf("restore engine: %w", err)
	}
	st := newStepper(eng.Coordinator())
	st.setCacheState(sn.cache)
	st.target = sn.pos
	v := sn.v.CloneSuspended(st)
	eng.Rebind(v)

	s.Close()
	s.start(&machine{v: v, eng: eng, st: st, done: make(chan error, 1)}, func() error {
		return v.ResumeSuspended()
	})
	return nil
}
