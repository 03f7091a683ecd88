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

// BackupStats counts serve-loop activity. The fields mean the same thing
// for a cold and a warm backup: both run the one receive loop.
type BackupStats struct {
	FramesReceived uint64
	// RecordsLogged counts every record handed to the sink: all that were
	// admitted except heartbeats, the clean-halt marker included — cold and
	// warm alike.
	RecordsLogged   uint64
	AcksSent        uint64
	Heartbeats      uint64
	ReceiveRoutings uint64 // handler.Receive calls (the paper's receive)
	DuplicateFrames uint64 // frames re-delivered by a faulty channel (dropped, re-acked)
	SeqGaps         uint64 // frames lost by the channel (declares the primary failed)
	CorruptFrames   uint64 // undecodable frames (declares the primary failed)
	StaleEpochs     uint64 // frames from a deposed primary's epoch (dropped, never acked)
}

// receiver is the backup's half of the channel, and the one receive loop:
// admit each frame (wire.SeqGate.AdmitFrame), parse its batch, fold handler
// state through the paper's receive method, hand the batch to a sink,
// acknowledge. A warm backup executes the records, so its frames are decoded
// and its sink feeds the analysis its replay VM runs against; a cold backup
// only logs them (§3), so its frames are validated and stored as they came,
// and records are built when the log is read. Everything else — the counters,
// the failed / timed-out / completed verdict, what is and is not acknowledged
// — is the same backup seen at two moments, and is written here only.
type receiver struct {
	cfg BackupConfig // as given, defaults filled in

	// sink takes one admitted frame's (or one loaded log's) decoded records,
	// liveness-only ones removed, in arrival order; the slice is the sink's
	// to keep.
	sink func([]wire.Record) error
	// rawSink, which the cold backup sets, takes an admitted frame's payload
	// still encoded — validated, heartbeats cut out — and its record count.
	rawSink func(payload []byte, n int)
	natives []int  // logFrame's scratch: where the frame's NativeResults start
	ackBuf  []byte // ack's scratch: every acknowledgement is appended here
	stats   BackupStats
}

// errCorruptPayload marks an admitted frame whose payload does not parse.
var errCorruptPayload = errors.New("corrupt frame payload")

// newReceiver validates cfg and fills its defaults. who names the replica
// kind in errors. The handler set is checked against the registry here, so a
// registry that lacks a handler-managed native is refused before any frame
// arrives rather than at the first receive.
func newReceiver(cfg BackupConfig, who string) (receiver, error) {
	if cfg.Mode != ModeLock && cfg.Mode != ModeSched && cfg.Mode != ModeLockInterval {
		return receiver{}, fmt.Errorf("%s: bad mode %d", who, cfg.Mode)
	}
	if cfg.Handlers == nil {
		cfg.Handlers = sehandler.DefaultSet()
	}
	if cfg.Natives == nil {
		cfg.Natives = native.StdLib()
	}
	if err := cfg.Handlers.RegisterAll(cfg.Natives); err != nil {
		return receiver{}, fmt.Errorf("%s: %w", who, err)
	}
	return receiver{cfg: cfg}, nil
}

// Stats returns a copy of the serve-loop counters.
func (r *receiver) Stats() BackupStats { return r.stats }

// serve runs the receive loop until the primary completes or fails.
//
// The loop distinguishes how the primary was lost. Transport closure or a
// corrupted / gapped frame stream is OutcomePrimaryFailed; heartbeat silence
// (nothing received for FailureTimeout on a still-open channel) is
// OutcomePrimaryTimedOut. Both demand recovery — the logged prefix stays
// consistent in every case, because no record past a gap or a corrupt frame
// ever reaches the sink.
func (r *receiver) serve() (ServeOutcome, error) {
	if r.cfg.Endpoint == nil {
		return 0, errors.New("backup serve: no endpoint (an offline backup only loads and replays)")
	}
	var gate wire.SeqGate
	for {
		msg, err := r.cfg.Endpoint.Recv(r.cfg.FailureTimeout)
		if errors.Is(err, transport.ErrClosed) {
			return OutcomePrimaryFailed, nil
		}
		if errors.Is(err, transport.ErrTimeout) {
			return OutcomePrimaryTimedOut, nil
		}
		if err != nil {
			return 0, fmt.Errorf("backup receive: %w", err)
		}
		frame, verdict := gate.AdmitFrame(msg, r.cfg.Epoch)
		switch verdict {
		case wire.Corrupt:
			r.stats.CorruptFrames++
			return OutcomePrimaryFailed, nil
		case wire.StaleEpoch:
			r.stats.StaleEpochs++
			continue
		case wire.FutureEpoch:
			// Surface it as a failed primary so the caller re-enters the view
			// machinery.
			return OutcomePrimaryFailed, nil
		case wire.Gap:
			r.stats.SeqGaps++
			return OutcomePrimaryFailed, nil
		case wire.Duplicate:
			r.stats.DuplicateFrames++
			if frame.AckWanted && r.ack(frame.Seq) != nil {
				return OutcomePrimaryFailed, nil
			}
			continue
		}
		r.stats.FramesReceived++
		halted, err := r.logFrame(frame.Payload)
		if errors.Is(err, errCorruptPayload) {
			r.stats.CorruptFrames++
			return OutcomePrimaryFailed, nil
		} else if err != nil {
			return 0, err
		}
		if frame.AckWanted {
			if err := r.ack(frame.Seq); errors.Is(err, transport.ErrClosed) {
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

func (r *receiver) ack(seq uint64) error {
	r.ackBuf = wire.AppendAck(r.ackBuf[:0], r.cfg.Epoch, seq)
	if err := r.cfg.Endpoint.Send(r.ackBuf); err != nil {
		return err
	}
	r.stats.AcksSent++
	return nil
}

// logFrame passes one admitted frame's payload to the sink this backup has.
// Either way every byte is parsed before the caller acknowledges, and of a
// payload that is corrupt anywhere nothing is counted, routed or logged.
func (r *receiver) logFrame(payload []byte) (halted bool, err error) {
	if r.rawSink == nil {
		records, err := wire.DecodeAll(payload)
		if err != nil {
			return false, errCorruptPayload
		}
		return r.ingest(records, false)
	}
	// The cold path is ingest over encoded records, and builds none: a
	// NativeResult is routed from its bytes, once the walk has reached the
	// end. The payload is this receiver's own, so heartbeats are cut out in
	// place.
	kept, n, beats := 0, 0, uint64(0)
	r.natives = r.natives[:0]
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
			r.natives = append(r.natives, kept)
		}
		if kept != start { // something was cut out before this record
			copy(payload[kept:], payload[start:d.Offset()])
		}
		kept += d.Offset() - start
		n++
	}
	r.stats.Heartbeats += beats
	for _, at := range r.natives {
		sig, data, _ := wire.NewDecoder(payload[at:kept]).NativeSpans()
		if err := r.routeReceive(sig, data); err != nil {
			return halted, err
		}
	}
	r.stats.RecordsLogged += uint64(n)
	r.rawSink(payload[:kept], n)
	return halted, nil
}

// ingest is the record-ingest loop for decoded records — a warm backup's
// frame, or a log loaded from a capture: heartbeats are counted and
// dropped, handler state is delivered to its side-effect handler, and what
// remains is counted and handed to the sink. records is compacted in place.
// A clean-halt marker is a record like any other (RecordsLogged counts it)
// unless dropHalt is set — loading a log for replay drops it so that the log
// reads as a crash at its end. halted reports whether one was seen.
func (r *receiver) ingest(records []wire.Record, dropHalt bool) (halted bool, err error) {
	keep := records[:0]
	for _, rec := range records {
		switch rec := rec.(type) {
		case *wire.Heartbeat:
			r.stats.Heartbeats++
			continue
		case *wire.Halt:
			halted = true
			if dropHalt {
				continue
			}
		case *wire.NativeResult:
			if err := r.routeReceive([]byte(rec.Sig), rec.HandlerData); err != nil {
				return halted, err
			}
		}
		keep = append(keep, rec)
	}
	r.stats.RecordsLogged += uint64(len(keep))
	return halted, r.sink(keep)
}

// routeReceive delivers a NativeResult's handler state to the managing
// side-effect handler as it arrives (the paper's receive method, which may
// compress it). sig and data may alias a stored payload: nothing keeps sig,
// and a handler copies what it keeps of data.
func (r *receiver) routeReceive(sig, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	def, ok := r.cfg.Natives.Lookup(string(sig))
	if !ok {
		return fmt.Errorf("log references unknown native %q", string(sig))
	}
	h := r.cfg.Handlers.ForDef(def)
	if h == nil {
		return fmt.Errorf("native %q logged handler data but has no handler", string(sig))
	}
	r.stats.ReceiveRoutings++
	return h.Receive(data)
}

// Backup is the cold backup: during normal operation it logs records (and
// routes handler state to side-effect handlers); on primary failure it
// re-executes the program gated by the log.
type Backup struct {
	receiver
	store *LogStore
}

// NewBackup builds a backup replica. A nil Endpoint makes an offline backup:
// it can LoadRecords and Recover, and Serve returns an error.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	r, err := newReceiver(cfg, "backup")
	if err != nil {
		return nil, err
	}
	b := &Backup{receiver: r, store: NewLogStore()}
	b.sink = func(records []wire.Record) error {
		b.store.Append(records...)
		return nil
	}
	b.rawSink = b.store.AppendRaw
	return b, nil
}

// Store exposes the logged records (tests, diagnostics).
func (b *Backup) Store() *LogStore { return b.store }

// Serve runs the logging loop until the primary completes or fails. It is
// the "cold" half of the backup: records are stored (and side-effect
// handler state accumulated via receive), nothing is executed.
func (b *Backup) Serve() (ServeOutcome, error) { return b.serve() }

// LoadRecords feeds records into the backup as if they had arrived over the
// transport (handler state is routed through receive); clean-halt markers
// are dropped so a subsequent Recover treats the log as a crash at its end.
// It is used to stand up an offline replay backup from a captured log.
func (b *Backup) LoadRecords(records []wire.Record) error {
	// ingest compacts its argument; the caller keeps its slice.
	_, err := b.ingest(append([]wire.Record(nil), records...), true)
	return err
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
