package consensus

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/replication"
)

// Backend adapts a consensus leader to replication.CoordinationBackend: the
// primary's frame batches become replicated log entries, and an output
// commit blocks until majority commit in the leader's term — the §4 output
// rule with "backup ack" generalized to "quorum durable".
//
// Failure mapping: any Propose/WaitCommit failure (deposed leader, killed
// replica, commit timeout) latches Lost and wraps replication.ErrBackupLost,
// so the primary aborts on it exactly as on a lost pair backup. That
// is deliberately pessimistic — a deposed leader's entry may still commit
// under its successor, but the old leader cannot know, which is exactly the
// output-commit uncertainty the recovery analysis already handles.
type Backend struct {
	r             *Replica
	commitTimeout time.Duration
	lost          atomic.Bool
}

var _ replication.CoordinationBackend = (*Backend)(nil)

// NewBackend wraps leader r; the caller owns r's cluster and stops it.
// commitTimeout bounds each output-commit wait (0 = wait forever; under a
// virtual clock prefer a bound so a partitioned leader surfaces as loss
// instead of parking the VM).
func NewBackend(r *Replica, commitTimeout time.Duration) *Backend {
	return &Backend{r: r, commitTimeout: commitTimeout}
}

// Ship implements CoordinationBackend. The payload is copied by Propose, so
// the primary's reused flush buffer is safe.
func (b *Backend) Ship(payload []byte, commit bool) error {
	if b.lost.Load() {
		return fmt.Errorf("consensus ship: %w", replication.ErrBackupLost)
	}
	index, term, err := b.r.Propose(payload, commit)
	if err != nil {
		b.lost.Store(true)
		return fmt.Errorf("consensus propose: %w: %w", replication.ErrBackupLost, err)
	}
	if !commit {
		return nil
	}
	if err := b.r.WaitCommit(index, term, b.commitTimeout); err != nil {
		b.lost.Store(true)
		return fmt.Errorf("consensus commit: %w: %w", replication.ErrBackupLost, err)
	}
	return nil
}

// Epoch implements CoordinationBackend: the leader's term, which stamps
// every replicated frame's Epoch field.
func (b *Backend) Epoch() uint64 { return b.r.Term() }

// Lost implements CoordinationBackend (latched).
func (b *Backend) Lost() bool { return b.lost.Load() || b.r.Stopped() }

// Quiesce implements CoordinationBackend. The consensus path has no primary-
// side keepalive to stop — leader heartbeats live in the replica actor and
// must keep running through the final halt flush — so this is a no-op.
func (b *Backend) Quiesce() {}

// Close implements CoordinationBackend. The backend owns nothing: whoever
// built the cluster stops it.
func (b *Backend) Close() error { return nil }
