package replication

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/vm"
	"repro/internal/wire"
)

// RecoverConfig configures the recovery execution.
type RecoverConfig struct {
	// Program is the same program the primary ran (required).
	Program *bytecode.Program
	// Env is the shared environment (required).
	Env *env.Env
	// Policy drives the backup's own scheduling during and after recovery
	// (deliberately independent of the primary's; defaults per mode).
	Policy vm.SchedPolicy
	// MaxInstructions is passed to the VM.
	MaxInstructions uint64
	// Dispatch selects the recovery VM's interpreter stream. Replay does not
	// care which (both produce bit-identical logs), so any log can be
	// recovered on either.
	Dispatch vm.Dispatch
	// OnVM, when set, receives the recovery VM right after construction and
	// before it runs. The simulation harness uses it to install kill handles
	// so a promoted primary can die at an exact frame position.
	OnVM func(*vm.VM)
	// Tail, when set, makes the recovering replica a *promoted* primary: every
	// event past the recovered log — live lock acquisitions, scheduling
	// decisions, native results, and the re-committed uncertain output — is
	// teed through this outgoing Primary to a freshly recruited backup, whose
	// log (snapshot prefix + tail) becomes a faithful continuation of the old
	// one. Nil for a plain standalone recovery.
	Tail *Primary
}

// RecoveryReport summarises what recovery did.
type RecoveryReport struct {
	RecordsInLog     int
	FedResults       uint64
	Reinvoked        uint64
	SkippedOutputs   uint64
	TestedOutputs    uint64
	LiveInvokes      uint64
	GatedWakeups     uint64
	ReplayedSwitches uint64
	VMStats          vm.Stats
}

// ReplayEngine is the one replay set-up: the indexed log, the mode's replay
// coordinator over it, the side-effect handler set with the receive-state
// folded in, the replay VM built the way replay needs it, and the report of
// what replay did. A cold backup's Recover builds one over its closed log and
// runs it to completion; RunWarm builds one over the log while it grows; the
// debugger builds one from a capture and needs it as a value it can pause,
// clone for a checkpoint, and resume.
type ReplayEngine struct {
	mode     Mode
	natives  *native.Registry
	handlers *sehandler.Set
	a        *analysis
	nr       *nativeReplay
	coord    vm.Coordinator
}

// newReplayEngine builds the replay coordinator of the backup's mode over a
// (closed or still open). cfg is the backup's, defaults filled in; its
// handlers must already hold whatever receive-state the records in a carried.
// tail, when set, makes the replay a promoted primary's.
func newReplayEngine(cfg *BackupConfig, a *analysis, policy vm.SchedPolicy, tail *Primary) *ReplayEngine {
	e := &ReplayEngine{mode: cfg.Mode, natives: cfg.Natives, handlers: cfg.Handlers, a: a}
	switch e.mode {
	case ModeLock:
		lr := newLockReplay(a, e.handlers, policy)
		e.nr, e.coord = lr.nativeReplay, lr
	case ModeSched:
		sr := newSchedReplay(a, e.handlers, policy)
		e.nr, e.coord = sr.nativeReplay, sr
	case ModeLockInterval:
		ir := newIntervalReplay(a, e.handlers, policy)
		e.nr, e.coord = ir.nativeReplay, ir
	}
	e.nr.tail = tail
	return e
}

// NewReplayEngine indexes a captured record stream and builds the replay
// set-up for it, exactly as an offline backup given the stream through
// LoadRecords would: handler state folds into its handler, halt and
// heartbeat records are dropped, so a log captured from a clean run replays
// as a crash at its end rather than refusing to replay at all. handlers
// defaults to sehandler.DefaultSet and natives to native.StdLib; policy
// drives the replay's own scheduling (per-mode seeded default if nil).
func NewReplayEngine(mode Mode, records []wire.Record, handlers *sehandler.Set, natives *native.Registry, policy vm.SchedPolicy) (*ReplayEngine, error) {
	b, err := NewBackup(BackupConfig{Mode: mode, Handlers: handlers, Natives: natives})
	if err != nil {
		return nil, err
	}
	if err := b.LoadRecords(records); err != nil {
		return nil, err
	}
	return b.replayEngine(RecoverConfig{Policy: policy})
}

// NewVM builds the VM that replays under this engine and installs the
// handlers' state in it, so natives can translate volatile identifiers. coord
// is what the VM is to run under when the engine's own coordinator has to be
// wrapped (the warm replay's pull, the debugger's stepper); nil means the
// engine's coordinator as it is.
func (e *ReplayEngine) NewVM(cfg RecoverConfig, coord vm.Coordinator) (*vm.VM, error) {
	if coord == nil {
		coord = e.coord
	}
	v, err := vm.New(vm.Config{
		Program:         cfg.Program,
		Env:             cfg.Env,
		Natives:         e.natives,
		Coordinator:     coord,
		MaxInstructions: cfg.MaxInstructions,
		// A scheduling replay keeps the control-path checksum the primary
		// kept: it must verify the recorded switch points and, past the log's
		// end, act as the new primary.
		TrackProgress: e.mode == ModeSched,
		Dispatch:      cfg.Dispatch,
	})
	if err != nil {
		return nil, err
	}
	if cfg.OnVM != nil {
		cfg.OnVM(v)
	}
	e.Rebind(v)
	return v, nil
}

// Rebind attaches the engine's handlers to v: v's handler-state table is
// filled from them, and a handler that holds the replaying process is pointed
// at v's. NewVM does it for the VM it builds; a VM cloned from a checkpoint
// needs it again, against the cloned engine (and no second Restore: that ran
// in the lineage).
func (e *ReplayEngine) Rebind(v *vm.VM) {
	for _, name := range e.handlers.Names() {
		h, _ := e.handlers.Get(name)
		if st := h.State(); st != nil {
			v.SetHandlerState(name, st)
		}
		if b, ok := h.(interface{ Bind(*env.Process) }); ok {
			b.Bind(v.Process())
		}
	}
}

// Restore rebuilds volatile environment state through the handlers (the
// paper's restore, §4.4). It runs exactly once per replay, before the replay
// goes live past the end of the log.
func (e *ReplayEngine) Restore(v *vm.VM) error {
	err := e.handlers.RestoreAll(sehandler.Ctx{Heap: v.Heap(), Env: v.Environment(), Proc: v.Process()})
	if err != nil {
		return fmt.Errorf("restore volatile state: %w", err)
	}
	return nil
}

// Report summarises what the replay of v did so far; recordsInLog is the
// caller's count of the log it replayed.
func (e *ReplayEngine) Report(v *vm.VM, recordsInLog int) *RecoveryReport {
	report := &RecoveryReport{
		RecordsInLog:   recordsInLog,
		FedResults:     e.nr.FedResults,
		Reinvoked:      e.nr.Reinvoked,
		SkippedOutputs: e.nr.SkippedOuts,
		TestedOutputs:  e.nr.TestedOuts,
		LiveInvokes:    e.nr.LiveInvokes,
		VMStats:        v.Stats(),
	}
	switch c := e.coord.(type) {
	case *lockReplay:
		report.GatedWakeups = c.GatedWakeups
	case *schedReplay:
		report.ReplayedSwitches = c.Replayed
	case *intervalReplay:
		report.GatedWakeups = c.GatedWakeups
	}
	return report
}

// Coordinator returns the replay coordinator, for a caller that wraps it.
func (e *ReplayEngine) Coordinator() vm.Coordinator { return e.coord }

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
	nr := e.nr.cloneWith(a, handlers)
	c := &ReplayEngine{mode: e.mode, natives: e.natives, handlers: handlers, a: a, nr: nr}
	// Beyond the shared base and the policy, a coordinator's cursor state is
	// plain values: copy the struct and replace those two.
	switch cur := e.coord.(type) {
	case *lockReplay:
		cp := *cur
		cp.nativeReplay, cp.policy = nr, clonePolicy(cur.policy)
		c.coord = &cp
	case *schedReplay:
		cp := *cur
		cp.nativeReplay, cp.livePolicy = nr, clonePolicy(cur.livePolicy)
		c.coord = &cp
	case *intervalReplay:
		cp := *cur
		cp.nativeReplay, cp.policy = nr, clonePolicy(cur.policy)
		c.coord = &cp
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
	c := *a
	c.nativeQ = make(map[string][]wire.Record, len(a.nativeQ))
	c.lockQ = make(map[string][]*wire.LockAcq, len(a.lockQ))
	c.idmaps = make(map[string]map[uint64]*wire.IDMap, len(a.idmaps))
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
	return &c
}

// cloneWith copies the native-replay machinery against a cloned analysis
// and handler set. The tail is never carried over: a debugger clone is not
// a promoted primary.
func (nr *nativeReplay) cloneWith(a *analysis, handlers *sehandler.Set) *nativeReplay {
	c := *nr
	c.handlers, c.a, c.tail = handlers, a, nil
	return &c
}
