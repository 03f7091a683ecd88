package replication

import (
	"errors"
	"fmt"
	"time"

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
	// Endpoint receives log frames and sends acks. Nil makes an offline
	// backup, fed by LoadRecords only (replay of a captured or committed
	// log); its Serve returns an error.
	Endpoint transport.Endpoint
	// Handlers are the side-effect handlers (sehandler.DefaultSet if nil);
	// must be the same set the primary runs.
	Handlers *sehandler.Set
	// Natives maps record signatures to definitions for handler routing
	// (native.StdLib if nil). It must define every native the handlers
	// manage; the constructors refuse a registry that does not.
	Natives *native.Registry
	// FailureTimeout: receiving nothing for this long counts as a primary
	// failure (0 = rely on transport closure only).
	FailureTimeout time.Duration
	// Clock supplies time for RunWarm's serve goroutine and its wait for the
	// log to grow (nil = wall clock). Serve needs no clock of its own — its
	// only timed wait is the endpoint's Recv — but the simulation harness
	// sets this so warm replicas are fully clock-visible.
	Clock clock.Clock
	// Epoch is the view number this backup serves in. Frames stamped with an
	// older epoch are from a deposed primary and are dropped *without* an
	// acknowledgement — acking them would let a stale sender believe its
	// outputs committed against a configuration that has moved on (the
	// split-brain window the view service closes). A plain pair runs in
	// epoch 0.
	Epoch uint64
}

// BackupStats counts serve-loop activity. The fields mean the same thing
// for a cold and a warm backup: both run the one receive loop.
type BackupStats struct {
	FramesReceived uint64
	// RecordsLogged counts every record stored: all that were admitted
	// except heartbeats, the clean-halt marker included (a loaded log drops
	// it).
	RecordsLogged   uint64
	AcksSent        uint64
	Heartbeats      uint64
	ReceiveRoutings uint64 // handler.Receive calls (the paper's receive)
	DuplicateFrames uint64 // frames re-delivered by a faulty channel (dropped, re-acked)
	SeqGaps         uint64 // frames lost by the channel (declares the primary failed)
	CorruptFrames   uint64 // undecodable frames (declares the primary failed)
	StaleEpochs     uint64 // frames from a deposed primary's epoch (dropped, never acked)
}

// Backup is the backup replica, and its receive loop is the one receive
// path: admit each frame (wire.SeqGate.AdmitFrame), validate its batch, fold
// handler state through the paper's receive method, store the records as
// they came, acknowledge. During normal operation that is all it does — it
// "simply logs the recovery information provided by the primary" (§3) — and
// on primary failure Recover re-executes the program gated by the log. A
// warm backup is the same backup with a second reader of its log: RunWarm
// replays the log while it grows instead of once it has ended.
type Backup struct {
	cfg     BackupConfig // as given, defaults filled in
	store   *LogStore
	natives []int  // logFrame's scratch: where the frame's NativeResults start
	ackBuf  []byte // ack's scratch: every acknowledgement is appended here
	stats   BackupStats
}

// errCorruptPayload marks an admitted frame whose payload does not parse.
var errCorruptPayload = errors.New("corrupt frame payload")

// NewBackup builds a backup replica. A nil Endpoint makes an offline backup:
// it can LoadRecords and Recover, and Serve returns an error. The handler
// set is checked against the registry here, so a registry that lacks a
// handler-managed native is refused before any frame arrives rather than at
// the first receive.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	if cfg.Mode != ModeLock && cfg.Mode != ModeSched && cfg.Mode != ModeLockInterval {
		return nil, fmt.Errorf("backup: bad mode %d", cfg.Mode)
	}
	if cfg.Handlers == nil {
		cfg.Handlers = sehandler.DefaultSet()
	}
	if cfg.Natives == nil {
		cfg.Natives = native.StdLib()
	}
	if err := cfg.Handlers.RegisterAll(cfg.Natives); err != nil {
		return nil, fmt.Errorf("backup: %w", err)
	}
	return &Backup{cfg: cfg, store: NewLogStore()}, nil
}

// Stats returns a copy of the serve-loop counters.
func (b *Backup) Stats() BackupStats { return b.stats }

// Serve runs the receive loop until the primary completes or fails: records
// are stored (and side-effect handler state accumulated via receive),
// nothing is executed.
//
// The loop distinguishes how the primary was lost. Transport closure or a
// corrupted / gapped frame stream is OutcomePrimaryFailed; heartbeat silence
// (nothing received for FailureTimeout on a still-open channel) is
// OutcomePrimaryTimedOut. Both demand recovery — the logged prefix stays
// consistent in every case, because no record past a gap or a corrupt frame
// ever reaches the store.
func (b *Backup) Serve() (ServeOutcome, error) {
	if b.cfg.Endpoint == nil {
		return 0, errors.New("backup serve: no endpoint (an offline backup only loads and replays)")
	}
	var gate wire.SeqGate
	for {
		msg, err := b.cfg.Endpoint.Recv(b.cfg.FailureTimeout)
		if errors.Is(err, transport.ErrClosed) {
			return OutcomePrimaryFailed, nil
		}
		if errors.Is(err, transport.ErrTimeout) {
			return OutcomePrimaryTimedOut, nil
		}
		if err != nil {
			return 0, fmt.Errorf("backup receive: %w", err)
		}
		frame, verdict := gate.AdmitFrame(msg, b.cfg.Epoch)
		switch verdict {
		case wire.Corrupt:
			b.stats.CorruptFrames++
			return OutcomePrimaryFailed, nil
		case wire.StaleEpoch:
			b.stats.StaleEpochs++
			continue
		case wire.FutureEpoch:
			// Surface it as a failed primary so the caller re-enters the view
			// machinery.
			return OutcomePrimaryFailed, nil
		case wire.Gap:
			b.stats.SeqGaps++
			return OutcomePrimaryFailed, nil
		case wire.Duplicate:
			b.stats.DuplicateFrames++
			if frame.AckWanted && b.ack(frame.Seq) != nil {
				return OutcomePrimaryFailed, nil
			}
			continue
		}
		b.stats.FramesReceived++
		halted, err := b.logFrame(frame.Payload)
		if errors.Is(err, errCorruptPayload) {
			b.stats.CorruptFrames++
			return OutcomePrimaryFailed, nil
		} else if err != nil {
			return 0, err
		}
		if frame.AckWanted {
			if err := b.ack(frame.Seq); errors.Is(err, transport.ErrClosed) {
				return OutcomePrimaryFailed, nil
			} else if err != nil {
				return 0, fmt.Errorf("send ack %d: %w", frame.Seq, err)
			}
		}
		if halted {
			return OutcomePrimaryCompleted, nil
		}
	}
}

func (b *Backup) ack(seq uint64) error {
	b.ackBuf = wire.AppendAck(b.ackBuf[:0], b.cfg.Epoch, seq)
	if err := b.cfg.Endpoint.Send(b.ackBuf); err != nil {
		return err
	}
	b.stats.AcksSent++
	return nil
}

// logFrame validates one admitted frame's payload and stores it as it came.
// It builds no record: a NativeResult is routed from its bytes, once the
// walk has reached the end, so of a payload that is corrupt anywhere nothing
// is counted, routed or logged. The payload is this backup's own, so
// heartbeats are cut out in place.
func (b *Backup) logFrame(payload []byte) (halted bool, err error) {
	kept, n, beats := 0, 0, uint64(0)
	b.natives = b.natives[:0]
	for d := wire.NewDecoder(payload); d.More(); {
		start := d.Offset()
		t, err := d.Skip()
		if err != nil {
			return false, errCorruptPayload
		}
		switch t {
		case wire.RecHeartbeat:
			beats++
			continue
		case wire.RecHalt:
			halted = true
		case wire.RecNativeResult:
			b.natives = append(b.natives, kept)
		}
		if kept != start { // something was cut out before this record
			copy(payload[kept:], payload[start:d.Offset()])
		}
		kept += d.Offset() - start
		n++
	}
	b.stats.Heartbeats += beats
	for _, at := range b.natives {
		sig, data, _ := wire.NewDecoder(payload[at:kept]).NativeSpans()
		if err := b.routeReceive(sig, data); err != nil {
			return halted, err
		}
	}
	b.stats.RecordsLogged += uint64(n)
	b.store.AppendRaw(payload[:kept], n)
	return halted, nil
}

// ingest is the record-ingest loop for a loaded log's decoded records:
// heartbeats are counted and dropped, handler state is delivered to its
// side-effect handler, and what remains is counted and stored. records is
// compacted in place, and the store keeps it. A clean-halt marker is dropped,
// so that the log reads as a crash at its end.
func (b *Backup) ingest(records []wire.Record) error {
	keep := records[:0]
	for _, rec := range records {
		switch rec := rec.(type) {
		case *wire.Heartbeat:
			b.stats.Heartbeats++
			continue
		case *wire.Halt:
			continue
		case *wire.NativeResult:
			if err := b.routeReceive([]byte(rec.Sig), rec.HandlerData); err != nil {
				return err
			}
		}
		keep = append(keep, rec)
	}
	b.stats.RecordsLogged += uint64(len(keep))
	b.store.Append(keep...)
	return nil
}

// routeReceive delivers a NativeResult's handler state to the managing
// side-effect handler as it arrives (the paper's receive method, which may
// compress it). sig and data may alias a stored payload: nothing keeps sig,
// and a handler copies what it keeps of data.
func (b *Backup) routeReceive(sig, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	def, ok := b.cfg.Natives.Lookup(string(sig))
	if !ok {
		return fmt.Errorf("log references unknown native %q", string(sig))
	}
	h := b.cfg.Handlers.ForDef(def)
	if h == nil {
		return fmt.Errorf("native %q logged handler data but has no handler", string(sig))
	}
	b.stats.ReceiveRoutings++
	return h.Receive(data)
}

// Store exposes the logged records (tests, diagnostics, kill triggers).
func (b *Backup) Store() *LogStore { return b.store }

// LoadRecords feeds records into the backup as if they had arrived over the
// transport (handler state is routed through receive); clean-halt markers
// are dropped so a subsequent Recover treats the log as a crash at its end.
// It is used to stand up an offline replay backup from a captured log.
func (b *Backup) LoadRecords(records []wire.Record) error {
	// ingest compacts its argument; the caller keeps its slice.
	return b.ingest(append([]wire.Record(nil), records...))
}

// Recover re-executes the program from the initial state, gated by the log,
// recovers volatile environment state through the side-effect handlers, and
// continues as the live machine until the program completes. It returns the
// recovered VM and a report.
func (b *Backup) Recover(cfg RecoverConfig) (*vm.VM, *RecoveryReport, error) {
	if cfg.Program == nil || cfg.Env == nil {
		return nil, nil, errors.New("recover: nil program or environment")
	}
	eng, err := b.replayEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if eng.a.cleanHalt {
		return nil, nil, ErrNoRecoveryNeeded
	}
	v, err := eng.NewVM(cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery vm: %w", err)
	}
	if err := eng.Restore(v); err != nil {
		return nil, nil, err
	}
	runErr := v.Run()
	report := eng.Report(v, b.store.Len())
	if runErr != nil {
		return v, report, fmt.Errorf("recovery execution: %w", runErr)
	}
	return v, report, nil
}

// replayEngine indexes the closed log, read in place, and builds the replay
// set-up over it.
func (b *Backup) replayEngine(cfg RecoverConfig) (*ReplayEngine, error) {
	a, err := analyze(b.store.each)
	if err != nil {
		return nil, fmt.Errorf("analyze log: %w", err)
	}
	return newReplayEngine(&b.cfg, a, cfg.Policy, cfg.Tail), nil
}
