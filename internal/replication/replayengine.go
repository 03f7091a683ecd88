package replication

import (
	"fmt"

	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/vm"
	"repro/internal/wire"
)

// ReplayEngine packages the backup's replay machinery for offline use: the
// indexed log analysis, the mode-specific coordinator, and the side-effect
// handler set with the receive-state already folded in. Recover builds the
// same pieces internally and then runs to completion; the debugger instead
// needs them as a value it can hand to a VM, pause, clone for a checkpoint,
// and resume — so the engine exposes exactly that.
type ReplayEngine struct {
	mode     Mode
	natives  *native.Registry
	handlers *sehandler.Set
	a        *analysis
	nr       *nativeReplay
	coord    vm.Coordinator
}

// NewReplayEngine indexes a captured record stream and builds the replay
// coordinator for it. handlers defaults to sehandler.DefaultSet and natives
// to native.StdLib; policy drives the replay's own scheduling (per-mode
// seeded default if nil). Halt and heartbeat records are dropped, exactly
// as LoadRecords drops them, so a log captured from a clean run replays as
// a crash at its end rather than refusing to replay at all.
func NewReplayEngine(mode Mode, records []wire.Record, handlers *sehandler.Set, natives *native.Registry, policy vm.SchedPolicy) (*ReplayEngine, error) {
	if mode != ModeLock && mode != ModeSched && mode != ModeLockInterval {
		return nil, fmt.Errorf("replay engine: invalid mode %d", mode)
	}
	if handlers == nil {
		handlers = sehandler.DefaultSet()
	}
	if natives == nil {
		natives = native.StdLib()
	}
	if err := handlers.RegisterAll(natives); err != nil {
		return nil, err
	}
	a := newAnalysis()
	for _, r := range records {
		switch rec := r.(type) {
		case *wire.Halt, *wire.Heartbeat:
			continue
		case *wire.NativeResult:
			// The paper's receive method: handler state folds into the
			// managing handler as it arrives.
			if len(rec.HandlerData) > 0 {
				def, ok := natives.Lookup(rec.Sig)
				if !ok {
					return nil, fmt.Errorf("log references unknown native %q", rec.Sig)
				}
				h := handlers.ForDef(def)
				if h == nil {
					return nil, fmt.Errorf("native %q logged handler data but has no handler", rec.Sig)
				}
				if err := h.Receive(rec.HandlerData); err != nil {
					return nil, err
				}
			}
		}
		if err := a.add(r); err != nil {
			return nil, fmt.Errorf("analyze log: %w", err)
		}
	}
	a.close()
	e := &ReplayEngine{mode: mode, natives: natives, handlers: handlers, a: a}
	e.buildCoord(policy)
	return e, nil
}

func (e *ReplayEngine) buildCoord(policy vm.SchedPolicy) {
	switch e.mode {
	case ModeLock:
		lr := newLockReplay(e.a, e.handlers, policy)
		e.nr = lr.nr
		e.coord = lr
	case ModeSched:
		sr := newSchedReplay(e.a, e.handlers, policy)
		e.nr = sr.nr
		e.coord = sr
	case ModeLockInterval:
		ir := newIntervalReplay(e.a, e.handlers, policy)
		e.nr = ir.nr
		e.coord = ir
	}
}

// Coordinator returns the replay coordinator to install in the VM.
func (e *ReplayEngine) Coordinator() vm.Coordinator { return e.coord }

// Handlers returns the engine's side-effect handler set (receive-state
// folded in; Restore-able against the replay VM's environment).
func (e *ReplayEngine) Handlers() *sehandler.Set { return e.handlers }

// Mode returns the replication mode the log was captured under.
func (e *ReplayEngine) Mode() Mode { return e.mode }

// Natives returns the registry the engine's handlers registered into; the
// replay VM must execute against the same registry.
func (e *ReplayEngine) Natives() *native.Registry { return e.natives }

// TrackProgress reports whether the replay VM must keep control-path
// checksums (scheduling replay cross-checks them at recorded switches).
func (e *ReplayEngine) TrackProgress() bool { return e.mode == ModeSched }

// Clone deep-copies the engine mid-replay: the partially-consumed analysis,
// the coordinator's cursor state, and the handler set. A VM cloned at the
// same instant, driven by the cloned coordinator, replays the remaining log
// identically — the checkpoint-cache property. The clone and the original
// share the (immutable) record values but no mutable indexing state.
func (e *ReplayEngine) Clone() (*ReplayEngine, error) {
	handlers, err := e.handlers.Clone()
	if err != nil {
		return nil, err
	}
	a := e.a.clone()
	c := &ReplayEngine{mode: e.mode, natives: e.natives, handlers: handlers, a: a}
	switch cur := e.coord.(type) {
	case *lockReplay:
		lr := &lockReplay{
			policy:       clonePolicy(cur.policy),
			nr:           cur.nr.cloneWith(a, handlers),
			a:            a,
			lidNext:      cur.lidNext,
			GatedWakeups: cur.GatedWakeups,
		}
		c.nr = lr.nr
		c.coord = lr
	case *schedReplay:
		sr := &schedReplay{
			nr:            cur.nr.cloneWith(a, handlers),
			a:             a,
			idx:           cur.idx,
			expect:        cur.expect,
			forced:        cur.forced,
			livePolicy:    clonePolicy(cur.livePolicy),
			lidNext:       cur.lidNext,
			strict:        cur.strict,
			pendingSwitch: cur.pendingSwitch,
			Replayed:      cur.Replayed,
		}
		c.nr = sr.nr
		c.coord = sr
	case *intervalReplay:
		ir := &intervalReplay{
			policy:       clonePolicy(cur.policy),
			nr:           cur.nr.cloneWith(a, handlers),
			a:            a,
			idx:          cur.idx,
			consumed:     cur.consumed,
			lidNext:      cur.lidNext,
			GatedWakeups: cur.GatedWakeups,
		}
		c.nr = ir.nr
		c.coord = ir
	default:
		return nil, fmt.Errorf("replay engine: cannot clone coordinator %T", e.coord)
	}
	return c, nil
}

// clonePolicy copies a scheduling policy at its current decision position.
// Every in-repo policy implements vm.PolicyCloner; a foreign stateless
// policy may be shared as-is.
func clonePolicy(p vm.SchedPolicy) vm.SchedPolicy {
	if pc, ok := p.(vm.PolicyCloner); ok {
		return pc.ClonePolicy()
	}
	return p
}

// clone copies the analysis mid-consumption. Record values are immutable
// and shared (preserving the pointer identities the uncertain-output check
// relies on); the queue maps are copied as slice headers — consumption only
// re-slices, and a closed log never appends — and the id maps are copied
// deeply because AssignLID deletes from them.
func (a *analysis) clone() *analysis {
	c := &analysis{
		open:          a.open,
		last:          a.last,
		nativeQ:       make(map[string][]wire.Record, len(a.nativeQ)),
		lockQ:         make(map[string][]*wire.LockAcq, len(a.lockQ)),
		idmaps:        make(map[string]map[uint64]*wire.IDMap, len(a.idmaps)),
		intervals:     a.intervals,
		switches:      a.switches,
		uncertain:     a.uncertain,
		nativePending: a.nativePending,
		lockPending:   a.lockPending,
		idmapPending:  a.idmapPending,
		maxLID:        a.maxLID,
		cleanHalt:     a.cleanHalt,
	}
	for k, v := range a.nativeQ {
		c.nativeQ[k] = v
	}
	for k, v := range a.lockQ {
		c.lockQ[k] = v
	}
	for k, inner := range a.idmaps {
		m := make(map[uint64]*wire.IDMap, len(inner))
		for kk, vv := range inner {
			m[kk] = vv
		}
		c.idmaps[k] = m
	}
	return c
}

// cloneWith copies the native-replay machinery against a cloned analysis
// and handler set. The tail is never carried over: a debugger clone is not
// a promoted primary.
func (nr *nativeReplay) cloneWith(a *analysis, handlers *sehandler.Set) *nativeReplay {
	return &nativeReplay{
		handlers:    handlers,
		a:           a,
		FedResults:  nr.FedResults,
		Reinvoked:   nr.Reinvoked,
		SkippedOuts: nr.SkippedOuts,
		TestedOuts:  nr.TestedOuts,
		LiveInvokes: nr.LiveInvokes,
	}
}
