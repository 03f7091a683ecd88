package replication

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/simtest/clock"
	"repro/internal/vm"
	"repro/internal/wire"
)

// ErrBackupLost is the coordination backend's failure detector firing: for
// the pair, an output-commit acknowledgement did not arrive within AckTimeout
// or the transport to the backup failed; for the consensus backend, the
// quorum (or this replica's leadership) is gone. The coordination substrate
// is lost and the primary aborts, surfacing this error, with no output
// performed past the last commit.
var ErrBackupLost = errors.New("backup lost: ack timeout or transport failure")

// ErrProtocolDesync means the acknowledgement stream itself is broken: the
// primary received an ack for a frame it never sent, or bytes that do not
// parse as an ack at all. Either way the channel (or whoever is on the other
// end of it) cannot be trusted to have logged what the primary shipped, so
// treating any future ack as an output commit would be unsound. The error
// always accompanies ErrBackupLost — a desynced backup is a lost backup.
//
// Historically the ack loop accepted any ack with seq >= wantSeq, so a
// corrupt ack (or one from a stale pre-takeover sender) could silently
// satisfy an output commit; this error is the fix's visible half.
var ErrProtocolDesync = errors.New("replication protocol desync: acknowledgement for a frame never sent")

// PrimaryConfig configures the primary-side coordinator.
type PrimaryConfig struct {
	// Mode selects lock-acquisition or thread-scheduling replication.
	Mode Mode
	// Backend is the coordination path (required): the pair's PairBackend,
	// which owns the link, the ack timeout, heartbeats and the epoch, or the
	// consensus-backed replicated log (internal/consensus).
	Backend CoordinationBackend
	// Handlers are the side-effect handlers (sehandler.DefaultSet if nil).
	Handlers *sehandler.Set
	// Policy drives scheduling (seeded random if nil). The backup replays
	// with its own, different policy — only the log makes them agree.
	Policy vm.SchedPolicy
	// FlushEvery bounds the records buffered between output commits: a frame
	// ships, unacknowledged, only when this many are buffered (default 4096,
	// ≈ 40 KB of lock records). Otherwise frames leave at output commits and
	// at the clean halt, so the backup is woken per commit, not per batch.
	FlushEvery int
	// Clock times each ship for the metrics (nil = wall clock). The
	// deterministic simulation harness injects a virtual clock here.
	Clock clock.Clock
}

// Primary is the vm.Coordinator that turns a VM into the primary replica:
// the VM's default coordinator — scheduling by its policy, never gating,
// never waiting — plus the hooks that log (OnDescheduled, AssignLID,
// OnAcquired, InvokeNative) and OnHalt. It owns the backend-generic half of
// coordination — record buffering and scratch encoding, flush batching,
// output-commit points, interval state — and delegates "how a batch reaches a
// durable committed log" to its CoordinationBackend (the pair path by
// default).
type Primary struct {
	vm.DefaultCoordinator
	mode       Mode
	be         CoordinationBackend
	handlers   *sehandler.Set
	flushEvery int
	clk        clock.Clock

	buf wire.Buffer

	// Scratch records for the per-event log appends, native results and
	// output intents included. Coordinator callbacks run on the VM goroutine
	// one at a time and Buffer.Append fully encodes the record before
	// returning, so reusing one struct per type (and recNative's Results
	// slice) makes the steady-state record path allocation-free.
	recSwitch   wire.Switch
	recLock     wire.LockAcq
	recIDMap    wire.IDMap
	recInterval wire.LockInterval
	recNative   wire.NativeResult
	recIntent   wire.OutputIntent

	lidCounter int64
	metrics    primaryMetrics
	closedDown bool

	// counts tallies the records buffered, by type; timed counts the timed
	// appends (one in recordSample reads the clock). Both are the VM
	// goroutine's own; publish copies counts into metrics per flush.
	counts [wire.NumRecTypes]uint64
	timed  uint64

	// Open logical interval (ModeLockInterval): the thread currently
	// accumulating consecutive acquisitions, where its run started, and how
	// many it has performed.
	intTID   string
	intStart uint64
	intCount uint64
}

var _ vm.Coordinator = (*Primary)(nil)

// NewPrimary builds a primary coordinator.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if !cfg.Mode.valid() {
		return nil, fmt.Errorf("primary: bad mode %d", cfg.Mode)
	}
	if cfg.Backend == nil {
		return nil, errors.New("primary: nil coordination backend")
	}
	h := cfg.Handlers
	if h == nil {
		h = sehandler.DefaultSet()
	}
	fe := cfg.FlushEvery
	if fe <= 0 {
		fe = 4096
	}
	p := &Primary{
		DefaultCoordinator: vm.DefaultCoordinator{Policy: seededOr(cfg.Policy, 1)},
		mode:               cfg.Mode,
		be:                 cfg.Backend,
		handlers:           h,
		flushEvery:         fe,
		clk:                clock.Or(cfg.Clock),
	}
	if pb, ok := cfg.Backend.(*PairBackend); ok {
		// The pair backend reports its liveness counters into the owning
		// primary's and starts heartbeating only once adopted.
		pb.adopt(&p.metrics)
	}
	return p, nil
}

// NewVM builds the VM this primary coordinates. cfg's Coordinator and
// TrackProgress are set here: a scheduling primary logs each switch with the
// descheduled thread's control-path checksum (§4.2), so its VM must keep one;
// lock-mode VMs need not pay for it.
func (p *Primary) NewVM(cfg vm.Config) (*vm.VM, error) {
	cfg.Coordinator = p
	cfg.TrackProgress = p.mode == ModeSched
	return vm.New(cfg)
}

// Metrics returns a snapshot of the overhead decomposition. Safe to call
// from any goroutine while the primary runs.
func (p *Primary) Metrics() PrimaryMetrics { return p.metrics.Snapshot() }

// BackupLost reports whether the backend's failure detector has declared the
// coordination substrate (backup, quorum) dead.
func (p *Primary) BackupLost() bool { return p.be.Lost() }

// Handlers returns the side-effect handler set.
func (p *Primary) Handlers() *sehandler.Set { return p.handlers }

// Epoch returns the view number (pair) or term (consensus) the backend
// currently ships under.
func (p *Primary) Epoch() uint64 { return p.be.Epoch() }

// Backend returns the coordination backend (tests, diagnostics).
func (p *Primary) Backend() CoordinationBackend { return p.be }

// flush ships buffered records; with ack it blocks until the backend's
// commit rule holds for everything up to this point (the output-commit
// pessimism, §3.4) — for the pair, the backup's acknowledgement bounded by
// AckTimeout; for consensus, majority commit.
//
// Every backend is counted and timed here, one way: a frame is one Ship, its
// bytes are the records' (whatever header the backend adds is its own), and
// the Ship's duration is Pessimism when it commits, Communication when not.
func (p *Primary) flush(ack bool) error {
	p.publish()
	if p.be.Lost() {
		return fmt.Errorf("flush: %w", ErrBackupLost)
	}
	if p.buf.Count() == 0 && !ack {
		return nil
	}
	payload := p.buf.Bytes()
	t0 := p.clk.Now()
	err := p.be.Ship(payload, ack)
	d := p.clk.Since(t0)
	p.metrics.framesSent.Add(1)
	p.metrics.bytesSent.Add(uint64(len(payload)))
	if ack {
		p.metrics.acksAwaited.Add(1)
		p.metrics.addPessimism(d)
	} else {
		p.metrics.addCommunication(d)
	}
	if err != nil && p.be.Lost() {
		p.metrics.backupLost.Store(true)
	}
	p.buf.Reset()
	return err
}

// publish makes the record counts visible to Metrics.
func (p *Primary) publish() {
	for t := range p.counts {
		p.metrics.byType[t].Store(p.counts[t])
	}
}

// recordSample is how many timed appends share one clock reading (reading it
// around each cost four times the append it measured): one is timed and
// charged recordSample times over.
const recordSample = 64

// append buffers a record and ships the batch unacknowledged once it holds
// flushEvery records.
func (p *Primary) append(r wire.Record, timed bool) error {
	if err := p.buffer(r, timed); err != nil || p.buf.Count() < p.flushEvery {
		return err
	}
	return p.flush(false)
}

// buffer encodes a record into the batch and counts it; with timed, the
// encode/store cost is charged to the Record bucket, by sampling.
func (p *Primary) buffer(r wire.Record, timed bool) error {
	if p.be.Lost() {
		return fmt.Errorf("append %s: %w", r.Type(), ErrBackupLost)
	}
	var err error
	if timed {
		p.timed++
	}
	if timed && p.timed%recordSample == 0 {
		t0 := p.clk.Now()
		err = p.buf.Append(r)
		p.metrics.addRecord(recordSample * p.clk.Since(t0))
	} else {
		err = p.buf.Append(r)
	}
	if err != nil {
		return err
	}
	p.counts[r.Type()]++
	return nil
}

// OnDescheduled implements vm.Coordinator: in sched mode, log a thread
// scheduling record (br_cnt, pc_off, mon_cnt, l_asn, next t_id).
func (p *Primary) OnDescheduled(_ *vm.VM, prev, next *vm.Thread) error {
	if p.mode != ModeSched || prev == nil {
		return nil
	}
	// A descheduled thread stands flushed at a block edge or a blocking op,
	// so its progress indicators are read off it here, not kept per bytecode.
	br, methodIdx, pcOff, mon, lasn := snapshotProgress(prev)
	p.recSwitch = wire.Switch{
		TID: prev.VTID, BrCnt: br, MethodIdx: methodIdx, PCOff: pcOff,
		MonCnt: mon, LASN: lasn, Reason: uint8(prev.State()), Chk: prev.Progress.Chk, NextTID: next.VTID,
	}
	return p.append(&p.recSwitch, true)
}

// AssignLID implements vm.Coordinator: fresh counter, plus an id map record
// in lock mode so the backup can reproduce the assignment (§4.2). Interval
// mode needs no id maps: the interval sequence alone determines the
// acquisition order.
func (p *Primary) AssignLID(_ *vm.VM, t *vm.Thread, _ *vm.Monitor) (int64, bool, error) {
	lid := p.lidCounter + 1
	return lid, true, p.LogIDMap(t, lid)
}

// OnAcquired implements vm.Coordinator: in lock mode, log the acquisition
// record with the pre-increment sequence numbers; in interval mode, extend
// or roll the open logical interval.
func (p *Primary) OnAcquired(_ *vm.VM, t *vm.Thread, m *vm.Monitor) error {
	switch p.mode {
	case ModeLock:
		p.recLock = wire.LockAcq{TID: t.VTID, TASN: t.TASN, LID: m.LID, LASN: m.LASN}
		return p.append(&p.recLock, true)
	case ModeLockInterval:
		if p.intCount > 0 && p.intTID == t.VTID {
			p.intCount++
			return nil
		}
		if err := p.closeInterval(true); err != nil {
			return err
		}
		p.intTID = t.VTID
		p.intStart = t.TASN
		p.intCount = 1
		return nil
	default:
		return nil
	}
}

// closeInterval flushes the open logical interval into the log. It must run
// before any output commit (so recovery can reach the commit point) and at
// clean shutdown. timed is append's: an interval rolled by the next
// acquisition is record time, one closed for a commit or at halt is not.
func (p *Primary) closeInterval(timed bool) error {
	if p.intCount == 0 {
		return nil
	}
	p.recInterval = wire.LockInterval{TID: p.intTID, StartTASN: p.intStart, Count: p.intCount}
	p.intCount = 0
	return p.append(&p.recInterval, timed)
}

// InvokeNative implements vm.Coordinator (§4.1/§3.4): output commit before
// outputs; log results of non-deterministic commands, with handler state.
// Once the backend is lost — found by the output-commit wait, or latched
// between two outputs by a failed heartbeat or a stopped leader — the loss
// aborts the run (ErrBackupLost) with the output unperformed, so a restarted
// pair cannot duplicate it.
func (p *Primary) InvokeNative(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	if def.Output {
		if err := p.CommitOutput(t, def); err != nil {
			return nil, err
		}
	}
	results, err := v.DirectNative(t, def, args)
	if err != nil {
		return nil, err
	}
	if def.NonDeterministic {
		if err := p.LogNativeResult(v, t, def, args, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// CommitOutput logs an output intent for the invocation t is about to
// perform and runs the output commit: the log is flushed and the call blocks
// until the backend's commit rule holds for everything up to the intent.
// It is the first half of the primary's output path, exposed so a promoted
// backup replaying toward its own new backup (the state-transfer tail) can
// commit the log's uncertain final output against the new configuration
// before re-deciding whether to perform it.
func (p *Primary) CommitOutput(t *vm.Thread, def *native.Def) error {
	if p.mode == ModeLockInterval {
		if err := p.closeInterval(false); err != nil {
			return err
		}
	}
	seq := t.OutSeq
	if def.UsesOutputSeq {
		seq++
	}
	p.recIntent = wire.OutputIntent{TID: t.VTID, NatSeq: t.NatSeq, Sig: def.Sig, OutSeq: seq}
	if err := p.append(&p.recIntent, false); err != nil {
		return err
	}
	// "On performing an output, the primary waits until the backup
	// acknowledges having logged all events up to the output event."
	return p.flush(true)
}

// LogNativeResult logs the results (and managing-handler state) of a
// non-deterministic native the caller just invoked — the second half of the
// primary's output path, reusable by the promotion tail for natives that go
// live during replay.
func (p *Primary) LogNativeResult(v *vm.VM, t *vm.Thread, def *native.Def, args, results []heap.Value) error {
	wv, err := appendWire(p.recNative.Results[:0], v.Heap(), results)
	if err != nil {
		return fmt.Errorf("log %s: %w", def.Sig, err)
	}
	rec := &p.recNative
	*rec = wire.NativeResult{TID: t.VTID, NatSeq: t.NatSeq, Sig: def.Sig, Results: wv}
	if h := p.handlers.ForDef(def); h != nil {
		data, err := h.Log(sehandler.Ctx{Heap: v.Heap(), Env: v.Environment(), Proc: v.Process()}, def, args, results)
		if err != nil {
			return fmt.Errorf("handler log %s: %w", def.Sig, err)
		}
		rec.HandlerData = data
	}
	return p.append(rec, false)
}

// LogIDMap logs an id-map record for a lock id the caller (a replay
// coordinator running past its log) just assigned, keeping the primary's own
// lid counter ahead of every externally minted id. No-op outside lock mode —
// interval mode derives acquisition order without id maps.
func (p *Primary) LogIDMap(t *vm.Thread, lid int64) error {
	if lid > p.lidCounter {
		p.lidCounter = lid
	}
	if p.mode != ModeLock {
		return nil
	}
	p.recIDMap = wire.IDMap{LID: lid, TID: t.VTID, TASN: t.TASN}
	return p.append(&p.recIDMap, true)
}

// ShipSnapshot transfers a recovered log prefix to the backend as ordinary
// log records and blocks until the backend commits the whole batch (the
// state-transfer handshake: a recruit holds the promoted primary's complete
// history before it may count for output commit). The caller pre-filters
// records that must not be re-shipped (halt markers, heartbeats, and the
// trailing uncertain output intent, which the replay re-commits itself).
func (p *Primary) ShipSnapshot(records []wire.Record) error {
	for _, r := range records {
		if err := p.append(r, false); err != nil {
			return fmt.Errorf("snapshot transfer: %w", err)
		}
	}
	if err := p.flush(true); err != nil {
		return fmt.Errorf("snapshot transfer: %w", err)
	}
	return nil
}

// OnHalt implements vm.Coordinator: on clean completion, ship the halt
// marker and synchronise with the backend; on a kill, fatal error or lost
// backend, crash silently — buffered records are lost with the primary, and
// the backup's failure detector takes over (fail-stop, R0).
func (p *Primary) OnHalt(v *vm.VM, runErr error) error {
	p.be.Quiesce()
	p.publish()
	if p.closedDown {
		return nil
	}
	p.closedDown = true
	if v.Killed() || runErr != nil || p.be.Lost() {
		return p.be.Close()
	}
	if p.mode == ModeLockInterval {
		if err := p.closeInterval(false); err != nil {
			return err
		}
	}
	// The marker rides the acknowledged frame below, never an auto-flushed
	// one: a backup leaves its receive loop on seeing it, so a sync sent
	// after it would go unanswered.
	if err := p.buffer(&wire.Halt{}, false); err != nil {
		return err
	}
	if err := p.flush(true); err != nil {
		return err
	}
	return p.be.Close()
}
