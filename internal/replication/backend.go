package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// CoordinationBackend abstracts how a batch of encoded records reaches a
// durable, ordered, committed log. The primary's execution half (record
// buffering, output-commit points, scratch encoding) is backend-generic; what
// differs between coordination schemes is the commit rule — when a shipped
// batch may be considered logged for the purposes of releasing an output
// (§3.4's pessimism).
//
// Two implementations exist: the paper's primary/backup pair (PairBackend:
// frame sequencing, the ack loop, heartbeats, and the two-sided failure
// detector), and the 3-replica consensus-backed replicated log
// (internal/consensus), whose commit rule is majority replication in the
// leader's term.
//
// Contract:
//
//   - Ship transmits one batch of encoded records (may be empty). With commit
//     set it blocks until the backend's commit rule holds for everything
//     shipped so far — pair: the backup acknowledged this frame; consensus: a
//     majority of replicas hold the entry and it is committed in the
//     proposing leader's term. Payload bytes are only valid for the duration
//     of the call; backends that retain them must copy.
//   - A Ship failure that wraps ErrBackupLost means the backend's failure
//     detector has fired and latched: the coordination substrate is gone
//     (backup dead, quorum lost, leadership lost). Lost() reports the latch,
//     and the Primary aborts on it, whichever backend latched.
//   - The Primary counts and times every Ship; a backend accounts only what
//     the Primary cannot see (the pair's heartbeats, ack timeouts, stale
//     acks, desyncs).
//   - Epoch is the view/term the backend currently ships under (promotion
//     hooks: PreparePromotion requires a strictly newer epoch; consensus
//     advances it on election).
//   - Quiesce stops background liveness traffic (pair heartbeats) so the
//     final halt flush is not interleaved with it; Close additionally
//     releases the transport. Both are idempotent.
type CoordinationBackend interface {
	Ship(payload []byte, commit bool) error
	Epoch() uint64
	Lost() bool
	Quiesce()
	Close() error
}

// PairBackendConfig configures the primary/backup pair coordination path:
// everything on the primary's side of the link.
type PairBackendConfig struct {
	// Endpoint ships log frames to the backup and receives acks (required).
	Endpoint transport.Endpoint
	// AckTimeout bounds the wait for an output-commit acknowledgement
	// (0 = wait forever, the original pessimism).
	AckTimeout time.Duration
	// HeartbeatEvery enables a liveness heartbeat to the backup (0 = off).
	HeartbeatEvery time.Duration
	// Clock supplies time for ack deadlines and heartbeat pacing (nil = wall).
	Clock clock.Clock
	// Epoch is the view number this primary holds office in, stamped on
	// every frame and required on every ack. A plain pair runs in epoch 0;
	// the view service hands out higher epochs on promotion so receivers can
	// reject traffic from deposed primaries (see internal/viewsvc).
	Epoch uint64
}

// PairBackend is the paper's coordination path: frames shipped over one
// channel to a cold backup, sequenced contiguously, with output commit
// defined as "the backup acknowledged this frame" and a two-sided failure
// detector (ack timeout / transport closure → backup lost).
//
// A PairBackend is passive until adopted by a Primary: heartbeats start when
// NewPrimary takes ownership (so its liveness counters land in the owning
// primary's), and Ship may be called directly in tests without one.
type PairBackend struct {
	ep         transport.Endpoint
	ackTimeout time.Duration
	clk        clock.Clock
	epoch      uint64

	frameSeq uint64
	// lastSent is the highest frame sequence actually offered to the
	// endpoint; an ack above it names a frame that never existed and trips
	// ErrProtocolDesync. Written under sendMu, read by awaitAck on the VM
	// goroutine (atomically, since heartbeats send concurrently).
	lastSent atomic.Uint64
	sendMu   sync.Mutex
	// frameBuf is the reusable frame-encode scratch (guarded by sendMu);
	// every Endpoint.Send must have consumed the bytes before returning, so
	// the next frame may overwrite them.
	frameBuf []byte

	// Heartbeat loop control: the loop paces itself by parking on hbSlot
	// with the heartbeat period as timeout (clock-visible, so it works under
	// a virtual clock); Quiesce sets hbStopped and signals the slot.
	hbSlot    clock.WaitSlot
	hbStopped atomic.Bool
	hbDone    chan struct{}
	hbEvery   time.Duration

	backupLost atomic.Bool
	metrics    *primaryMetrics
}

var _ CoordinationBackend = (*PairBackend)(nil)

// NewPairBackend builds the pair coordination backend, for
// PrimaryConfig.Backend.
func NewPairBackend(cfg PairBackendConfig) (*PairBackend, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("pair backend: nil endpoint")
	}
	return &PairBackend{
		ep:         cfg.Endpoint,
		ackTimeout: cfg.AckTimeout,
		hbEvery:    cfg.HeartbeatEvery,
		clk:        clock.Or(cfg.Clock),
		epoch:      cfg.Epoch,
		metrics:    &primaryMetrics{},
	}, nil
}

// adopt points the backend's liveness counters at the owning primary's and
// starts the heartbeat loop. Called once, from NewPrimary, before any
// traffic flows.
func (pb *PairBackend) adopt(m *primaryMetrics) {
	pb.metrics = m
	if pb.hbEvery > 0 && pb.hbSlot == nil {
		pb.hbSlot = pb.clk.NewWaitSlot()
		pb.hbDone = make(chan struct{})
		pb.clk.Go(pb.heartbeatLoop)
	}
}

// Epoch returns the view number this backend stamps on its frames.
func (pb *PairBackend) Epoch() uint64 { return pb.epoch }

// Lost reports whether the failure detector has declared the backup dead.
func (pb *PairBackend) Lost() bool { return pb.backupLost.Load() }

// Ship implements CoordinationBackend: one frame out; with commit, block
// until the backup has acknowledged everything up to it (§3.4), bounded by
// AckTimeout.
func (pb *PairBackend) Ship(payload []byte, commit bool) error {
	wantSeq, err := pb.sendFrame(payload, commit)
	if err != nil || !commit {
		return err
	}
	return pb.awaitAck(wantSeq)
}

// Quiesce stops the heartbeat loop (idempotent; safe with no loop running).
func (pb *PairBackend) Quiesce() {
	if pb.hbSlot == nil {
		return
	}
	if pb.hbStopped.CompareAndSwap(false, true) {
		pb.hbSlot.Signal()
	}
	// The loop is already awake (signalled or mid-send) and needs no clock
	// advance to finish, so this bare channel wait is safe under a virtual
	// clock even though the waiter may itself be an actor.
	<-pb.hbDone
}

// Close stops background traffic and releases the transport.
func (pb *PairBackend) Close() error {
	pb.Quiesce()
	return pb.ep.Close()
}

func (pb *PairBackend) heartbeatLoop() {
	defer close(pb.hbDone)
	var buf wire.Buffer
	seq := uint64(0)
	for {
		timedOut := pb.hbSlot.Park(pb.hbEvery)
		if pb.hbStopped.Load() {
			return
		}
		if !timedOut {
			continue // woken for something other than the period: re-park
		}
		if pb.backupLost.Load() {
			return
		}
		seq++
		buf.Reset()
		if err := buf.Append(&wire.Heartbeat{Seq: seq}); err != nil {
			return
		}
		if _, err := pb.sendFrame(buf.Bytes(), false); err != nil {
			return
		}
		pb.metrics.heartbeatsSent.Add(1)
	}
}

// markBackupLost latches the loss and stops replicating.
func (pb *PairBackend) markBackupLost() {
	if pb.backupLost.CompareAndSwap(false, true) {
		pb.metrics.backupLost.Store(true)
	}
}

// sendFrame transmits one frame (thread-safe vs heartbeats) and returns the
// sequence number it was assigned. The sequence is read and assigned inside
// the critical section so callers awaiting an ack can never observe a stale
// expectation (a concurrent heartbeat bumping frameSeq between the read and
// the send).
func (pb *PairBackend) sendFrame(payload []byte, ackWanted bool) (uint64, error) {
	pb.sendMu.Lock()
	defer pb.sendMu.Unlock()
	if pb.backupLost.Load() {
		return 0, fmt.Errorf("ship log frame: %w", ErrBackupLost)
	}
	pb.frameSeq++
	seq := pb.frameSeq
	pb.lastSent.Store(seq)
	pb.frameBuf = wire.AppendFrame(pb.frameBuf[:0], &wire.Frame{Seq: seq, Epoch: pb.epoch, AckWanted: ackWanted, Payload: payload})
	if err := pb.ep.Send(pb.frameBuf); err != nil {
		// The channel to the backup is gone (closed or broken mid-write):
		// that is a backup loss, not merely an I/O error.
		pb.markBackupLost()
		return seq, fmt.Errorf("ship log frame %d: %w: %w", seq, ErrBackupLost, err)
	}
	return seq, nil
}

// awaitAck blocks until the backup acknowledges wantSeq or AckTimeout
// expires. Stale acknowledgements (duplicate frames re-acked by the backup,
// or late acks from an earlier commit) are skipped, not treated as failures.
//
// Two classes of ack end the wait with ErrProtocolDesync instead: bytes that
// do not decode as an ack, and an ack whose sequence exceeds the highest
// frame this primary ever sent. Both mean the channel (or a foreign sender
// on it) is fabricating acknowledgements — trusting any later ack for output
// commit would be unsound, so the backup is declared lost on the spot.
// Acks stamped with a different epoch are from another view's configuration
// and are skipped without prejudice (a late ack from before a takeover).
func (pb *PairBackend) awaitAck(wantSeq uint64) error {
	var deadline time.Time
	if pb.ackTimeout > 0 {
		deadline = pb.clk.Now().Add(pb.ackTimeout)
	}
	for {
		var timeout time.Duration
		if pb.ackTimeout > 0 {
			timeout = deadline.Sub(pb.clk.Now())
			if timeout <= 0 {
				pb.metrics.ackTimeouts.Add(1)
				pb.markBackupLost()
				return fmt.Errorf("await ack %d: %w", wantSeq, ErrBackupLost)
			}
		}
		msg, err := pb.ep.Recv(timeout)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				pb.metrics.ackTimeouts.Add(1)
			}
			if errors.Is(err, transport.ErrTimeout) || errors.Is(err, transport.ErrClosed) {
				pb.markBackupLost()
				return fmt.Errorf("await ack %d: %w: %w", wantSeq, ErrBackupLost, err)
			}
			return fmt.Errorf("await ack %d: %w", wantSeq, err)
		}
		epoch, seq, err := wire.DecodeAck(msg)
		if err != nil {
			pb.metrics.desyncs.Add(1)
			pb.markBackupLost()
			return fmt.Errorf("await ack %d: undecodable ack: %w: %w: %w", wantSeq, ErrProtocolDesync, ErrBackupLost, err)
		}
		if epoch != pb.epoch {
			// Another view's acknowledgement (a deposed backup's late ack, or
			// a new configuration this primary is no longer part of). It can
			// not commit anything in this epoch; keep waiting for ours.
			pb.metrics.staleAcks.Add(1)
			continue
		}
		if seq > pb.lastSent.Load() {
			pb.metrics.desyncs.Add(1)
			pb.markBackupLost()
			return fmt.Errorf("await ack %d: ack names frame %d, never sent (last %d): %w: %w",
				wantSeq, seq, pb.lastSent.Load(), ErrProtocolDesync, ErrBackupLost)
		}
		if seq >= wantSeq {
			return nil
		}
		// Stale ack: a duplicate or an earlier commit's late acknowledgement.
		// The one we want is still in flight; keep waiting.
	}
}
