package replication

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// ServeOutcome is why the backup's serve loop ended.
type ServeOutcome int

// Serve outcomes.
const (
	// OutcomePrimaryCompleted: the primary shut down cleanly (halt marker).
	OutcomePrimaryCompleted ServeOutcome = iota + 1
	// OutcomePrimaryFailed: the transport to the primary failed (closed, or
	// the frame stream became untrustworthy: a sequence gap or a corrupt
	// frame) — recovery is required.
	OutcomePrimaryFailed
	// OutcomePrimaryTimedOut: the primary went silent for FailureTimeout —
	// no frames and no heartbeats — without the transport closing. The
	// failure detector declares it dead; recovery is required. Kept distinct
	// from OutcomePrimaryFailed because silence is a *suspicion* (under R0's
	// fail-stop assumption it is treated as death) while closure is a fact.
	OutcomePrimaryTimedOut
)

func (o ServeOutcome) String() string {
	switch o {
	case OutcomePrimaryCompleted:
		return "primary completed"
	case OutcomePrimaryFailed:
		return "primary failed"
	case OutcomePrimaryTimedOut:
		return "primary timed out"
	default:
		return "invalid"
	}
}

// Failed reports whether the outcome requires recovery (any detector firing,
// whether by transport closure or by heartbeat silence).
func (o ServeOutcome) Failed() bool {
	return o == OutcomePrimaryFailed || o == OutcomePrimaryTimedOut
}

// ErrNoRecoveryNeeded is returned by Recover when the log ends with a clean
// halt marker.
var ErrNoRecoveryNeeded = errors.New("primary completed cleanly; nothing to recover")

// BackupConfig configures the backup replica.
type BackupConfig struct {
	// Mode must match the primary's.
	Mode Mode
	// Endpoint receives log frames and sends acks (required).
	Endpoint transport.Endpoint
	// Handlers are the side-effect handlers (sehandler.DefaultSet if nil);
	// must be the same set the primary runs.
	Handlers *sehandler.Set
	// Natives maps record signatures to definitions for handler routing
	// (native.StdLib if nil).
	Natives *native.Registry
	// FailureTimeout: receiving nothing for this long counts as a primary
	// failure (0 = rely on transport closure only).
	FailureTimeout time.Duration
	// Clock supplies time for the warm backup's feed waits and serve
	// goroutine (nil = wall clock). The cold backup needs no clock of its
	// own — its only timed wait is the endpoint's Recv — but the simulation
	// harness sets this so warm replicas are fully clock-visible.
	Clock clock.Clock
	// Epoch is the view number this backup serves in. Frames stamped with an
	// older epoch are from a deposed primary and are dropped *without* an
	// acknowledgement — acking them would let a stale sender believe its
	// outputs committed against a configuration that has moved on (the
	// split-brain window the view service closes). A plain pair runs in
	// epoch 0.
	Epoch uint64
}

// BackupStats counts serve-loop activity.
type BackupStats struct {
	FramesReceived  uint64
	RecordsLogged   uint64
	AcksSent        uint64
	Heartbeats      uint64
	ReceiveRoutings uint64 // handler.Receive calls (the paper's receive)
	DuplicateFrames uint64 // frames re-delivered by a faulty channel (dropped, re-acked)
	SeqGaps         uint64 // frames lost by the channel (declares the primary failed)
	CorruptFrames   uint64 // undecodable frames (declares the primary failed)
	StaleEpochs     uint64 // frames from a deposed primary's epoch (dropped, never acked)
}

// Backup is the cold backup: during normal operation it logs records (and
// routes handler state to side-effect handlers); on primary failure it
// re-executes the program gated by the log.
type Backup struct {
	mode     Mode
	ep       transport.Endpoint
	handlers *sehandler.Set
	natives  *native.Registry
	timeout  time.Duration
	epoch    uint64
	clk      clock.Clock

	store *LogStore
	stats BackupStats
}

// NewBackup builds a backup replica.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("backup: nil endpoint")
	}
	if cfg.Mode != ModeLock && cfg.Mode != ModeSched && cfg.Mode != ModeLockInterval {
		return nil, fmt.Errorf("backup: bad mode %d", cfg.Mode)
	}
	h := cfg.Handlers
	if h == nil {
		h = sehandler.DefaultSet()
	}
	reg := cfg.Natives
	if reg == nil {
		reg = native.StdLib()
	}
	return &Backup{
		mode:     cfg.Mode,
		ep:       cfg.Endpoint,
		handlers: h,
		natives:  reg,
		timeout:  cfg.FailureTimeout,
		epoch:    cfg.Epoch,
		clk:      clock.Or(cfg.Clock),
		store:    NewLogStore(),
	}, nil
}

// Epoch returns the view number this backup serves in.
func (b *Backup) Epoch() uint64 { return b.epoch }

// Store exposes the logged records (tests, diagnostics).
func (b *Backup) Store() *LogStore { return b.store }

// Stats returns a copy of the serve-loop counters.
func (b *Backup) Stats() BackupStats { return b.stats }

// Serve runs the logging loop until the primary completes or fails. It is
// the "cold" half of the backup: records are stored (and side-effect
// handler state accumulated via receive), nothing is executed.
//
// The loop distinguishes how the primary was lost. Transport closure or a
// corrupted/ gapped frame stream is OutcomePrimaryFailed; heartbeat silence
// (nothing received for FailureTimeout on a still-open channel) is
// OutcomePrimaryTimedOut. Both demand recovery — the logged prefix stays
// consistent in every case, because no record past a gap or a corrupt frame
// is ever appended.
func (b *Backup) Serve() (ServeOutcome, error) {
	var gate wire.SeqGate
	for {
		msg, err := b.ep.Recv(b.timeout)
		if errors.Is(err, transport.ErrClosed) {
			return OutcomePrimaryFailed, nil
		}
		if errors.Is(err, transport.ErrTimeout) {
			return OutcomePrimaryTimedOut, nil
		}
		if err != nil {
			return 0, fmt.Errorf("backup receive: %w", err)
		}
		frame, err := wire.DecodeFrame(msg)
		if err != nil {
			// A frame that does not parse means the channel mangled data in
			// flight; nothing after it can be trusted.
			b.stats.CorruptFrames++
			return OutcomePrimaryFailed, nil
		}
		if frame.Epoch < b.epoch {
			// A deposed primary is still shipping frames from an older view.
			// Drop them without acknowledging — an ack here would let the
			// stale sender count an output as committed against a
			// configuration that has already moved on. Checked before the
			// sequence gate: stale frames belong to another epoch's numbering
			// and must not poison this view's dup/gap accounting.
			b.stats.StaleEpochs++
			continue
		}
		if frame.Epoch > b.epoch {
			// The configuration moved past us while we were logging — a
			// primary from a future view exists. This replica's log is no
			// longer authoritative; surface it as a failed primary so the
			// caller re-enters the view machinery rather than acking records
			// it cannot place.
			return OutcomePrimaryFailed, nil
		}
		if dup, gap := gate.Admit(frame.Seq); dup {
			// Re-delivered frame: its records are already in the log. Drop
			// them, but re-acknowledge so a primary waiting on this seq is
			// not stranded by a lost ack.
			b.stats.DuplicateFrames++
			if frame.AckWanted {
				if err := b.ep.Send(wire.EncodeAck(b.epoch, frame.Seq)); err != nil {
					return OutcomePrimaryFailed, nil
				}
				b.stats.AcksSent++
			}
			continue
		} else if gap {
			// At least one frame is gone for good: log records are missing
			// and the channel is no longer trustworthy. Declare failure while
			// the logged prefix is still consistent.
			b.stats.SeqGaps++
			return OutcomePrimaryFailed, nil
		}
		b.stats.FramesReceived++
		records, err := wire.DecodeAll(frame.Payload)
		if err != nil {
			b.stats.CorruptFrames++
			return OutcomePrimaryFailed, nil
		}
		halted := false
		for _, r := range records {
			switch rec := r.(type) {
			case *wire.Heartbeat:
				b.stats.Heartbeats++
				continue
			case *wire.Halt:
				halted = true
			case *wire.NativeResult:
				if err := b.routeReceive(rec); err != nil {
					return 0, err
				}
			}
			b.store.Append(r)
			b.stats.RecordsLogged++
		}
		if frame.AckWanted {
			if err := b.ep.Send(wire.EncodeAck(b.epoch, frame.Seq)); err != nil {
				if errors.Is(err, transport.ErrClosed) {
					return OutcomePrimaryFailed, nil
				}
				return 0, fmt.Errorf("send ack %d: %w", frame.Seq, err)
			}
			b.stats.AcksSent++
		}
		if halted {
			return OutcomePrimaryCompleted, nil
		}
	}
}

// LoadRecords feeds records into the backup as if they had arrived over the
// transport (handler state is routed through receive); clean-halt markers
// are dropped so a subsequent Recover treats the log as a crash at its end.
// It is used to stand up an offline replay backup from a captured log.
func (b *Backup) LoadRecords(records []wire.Record) error {
	for _, r := range records {
		switch rec := r.(type) {
		case *wire.Halt, *wire.Heartbeat:
			continue
		case *wire.NativeResult:
			if err := b.routeReceive(rec); err != nil {
				return err
			}
		}
		b.store.Append(r)
		b.stats.RecordsLogged++
	}
	return nil
}

// routeReceive delivers handler state to the managing side-effect handler as
// it arrives (the paper's receive method, which may compress it).
func (b *Backup) routeReceive(rec *wire.NativeResult) error {
	if len(rec.HandlerData) == 0 {
		return nil
	}
	def, ok := b.natives.Lookup(rec.Sig)
	if !ok {
		return fmt.Errorf("log references unknown native %q", rec.Sig)
	}
	h := b.handlers.ForDef(def)
	if h == nil {
		return fmt.Errorf("native %q logged handler data but has no handler", rec.Sig)
	}
	b.stats.ReceiveRoutings++
	return h.Receive(rec.HandlerData)
}

// RecoverConfig configures the recovery execution.
type RecoverConfig struct {
	// Program is the same program the primary ran (required).
	Program *bytecode.Program
	// Env is the shared environment (required).
	Env *env.Env
	// Policy drives the backup's own scheduling during and after recovery
	// (deliberately independent of the primary's; defaults per mode).
	Policy vm.SchedPolicy
	// GCThreshold / MaxInstructions are passed to the VM.
	GCThreshold     int
	MaxInstructions uint64
	// Dispatch selects the recovery VM's interpreter engine. Replay is
	// engine-agnostic (both engines produce bit-identical logs), so any
	// log can be recovered under either engine.
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

// Recover re-executes the program from the initial state, gated by the log,
// recovers volatile environment state through the side-effect handlers, and
// continues as the live machine until the program completes. It returns the
// recovered VM and a report.
func (b *Backup) Recover(cfg RecoverConfig) (*vm.VM, *RecoveryReport, error) {
	if cfg.Program == nil || cfg.Env == nil {
		return nil, nil, errors.New("recover: nil program or environment")
	}
	a, err := analyze(b.store.Records())
	if err != nil {
		return nil, nil, fmt.Errorf("analyze log: %w", err)
	}
	if a.cleanHalt {
		return nil, nil, ErrNoRecoveryNeeded
	}
	var coord vm.Coordinator
	var nr *nativeReplay
	var lr *lockReplay
	var sr *schedReplay
	var ir *intervalReplay
	switch b.mode {
	case ModeLock:
		lr = newLockReplay(a, b.handlers, cfg.Policy)
		lr.tail = cfg.Tail
		nr = lr.nr
		coord = lr
	case ModeSched:
		sr = newSchedReplay(a, b.handlers, cfg.Policy)
		sr.tail = cfg.Tail
		nr = sr.nr
		coord = sr
	case ModeLockInterval:
		ir = newIntervalReplay(a, b.handlers, cfg.Policy)
		ir.tail = cfg.Tail
		nr = ir.nr
		coord = ir
	}
	nr.tail = cfg.Tail
	v, err := vm.New(vm.Config{
		Program:         cfg.Program,
		Env:             cfg.Env,
		Natives:         b.natives,
		Coordinator:     coord,
		GCThreshold:     cfg.GCThreshold,
		MaxInstructions: cfg.MaxInstructions,
		// The replaying backup keeps the same control-path checksum the
		// primary did (it must verify the recorded switch points and, after
		// recovery, act as the new primary).
		TrackProgress: b.mode == ModeSched,
		Dispatch:      cfg.Dispatch,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery vm: %w", err)
	}
	if cfg.OnVM != nil {
		cfg.OnVM(v)
	}
	// Install handler state so natives can translate volatile identifiers,
	// then rebuild volatile environment state (restore, run exactly once).
	for _, name := range b.handlers.Names() {
		h, _ := b.handlers.Get(name)
		if st := h.State(); st != nil {
			v.SetHandlerState(name, st)
		}
	}
	if err := b.handlers.RestoreAll(sehandler.Ctx{Heap: v.Heap(), Env: cfg.Env, Proc: v.Process()}); err != nil {
		return nil, nil, fmt.Errorf("restore volatile state: %w", err)
	}
	runErr := v.Run()
	report := &RecoveryReport{
		RecordsInLog:   b.store.Len(),
		FedResults:     nr.FedResults,
		Reinvoked:      nr.Reinvoked,
		SkippedOutputs: nr.SkippedOuts,
		TestedOutputs:  nr.TestedOuts,
		LiveInvokes:    nr.LiveInvokes,
		VMStats:        v.Stats(),
	}
	if lr != nil {
		report.GatedWakeups = lr.GatedWakeups
	}
	if sr != nil {
		report.ReplayedSwitches = sr.Replayed
	}
	if ir != nil {
		report.GatedWakeups = ir.GatedWakeups
	}
	if runErr != nil {
		return v, report, fmt.Errorf("recovery execution: %w", runErr)
	}
	return v, report, nil
}
