package replication

import (
	"fmt"

	"repro/internal/vm"
	"repro/internal/wire"
)

// Promotion is a view-change takeover with state transfer: a backup that
// survived its primary becomes the new primary of a *new* pair, recruiting an
// idle node as its backup. The recruit must hold the promoted replica's
// complete history before it may count for output commit, so Run first ships
// the recovered log prefix as ordinary frames under the new epoch (the
// recruit is a plain Backup.Serve loop and cannot tell a snapshot from live
// traffic), then replays toward the log's end with every live event — and the
// re-committed uncertain final output — teed through the outgoing tail
// primary. The recruit ends up with snapshot + tail: a log from which a
// *second* recovery reproduces the same execution, which is what lets an
// n-node cluster survive n−1 sequential failures.
type Promotion struct {
	backup *Backup
	tail   *Primary
	rcfg   RecoverConfig

	// AfterTransfer, when set, runs after the snapshot is acknowledged and
	// before replay begins — the window where the recruit holds the full
	// prefix but no live records yet. The simulation harness uses it to place
	// kill points and inject stale-epoch traffic at the worst moment.
	AfterTransfer func(tail *Primary) error
}

// PreparePromotion stages a takeover: b (whose serve loop has ended with a
// failed primary) will recover with tailCfg's backend as its new backup.
// The tail must run the same mode, and its backend a strictly newer epoch
// than the view b served in — handing out those epochs is the view service's job
// (internal/viewsvc); enforcing monotonicity here is what keeps a deposed
// primary's traffic rejectable everywhere.
func PreparePromotion(b *Backup, rcfg RecoverConfig, tailCfg PrimaryConfig) (*Promotion, error) {
	if tailCfg.Mode == 0 {
		tailCfg.Mode = b.cfg.Mode
	}
	if tailCfg.Mode != b.cfg.Mode {
		return nil, fmt.Errorf("promotion: tail mode %d != backup mode %d", tailCfg.Mode, b.cfg.Mode)
	}
	if be := tailCfg.Backend; be != nil && be.Epoch() <= b.cfg.Epoch {
		return nil, fmt.Errorf("promotion: tail epoch %d must exceed the old view's epoch %d",
			be.Epoch(), b.cfg.Epoch)
	}
	tail, err := NewPrimary(tailCfg) // refuses a nil backend
	if err != nil {
		return nil, fmt.Errorf("promotion: %w", err)
	}
	rcfg.Tail = tail
	return &Promotion{backup: b, tail: tail, rcfg: rcfg}, nil
}

// Tail returns the outgoing primary toward the recruit (metrics, tests).
func (p *Promotion) Tail() *Primary { return p.tail }

// Run performs the takeover: state transfer, then tail-teed recovery. The
// returned VM is the new primary's machine, live past the old log's end. A
// failed transfer (recruit dead, ack timeout) aborts before any replay
// side effects.
func (p *Promotion) Run() (*vm.VM, *RecoveryReport, error) {
	if err := p.tail.ShipSnapshot(snapshotRecords(p.backup.store.Records())); err != nil {
		return nil, nil, fmt.Errorf("promotion: %w", err)
	}
	if p.AfterTransfer != nil {
		if err := p.AfterTransfer(p.tail); err != nil {
			return nil, nil, fmt.Errorf("promotion after-transfer: %w", err)
		}
	}
	return p.backup.Recover(p.rcfg)
}

// snapshotRecords filters a recovered log for state transfer: halt markers
// and heartbeats carry no recovery information, and a trailing output intent
// is withheld because its certainty is the *promoted* replica's decision —
// the replay re-commits it through the tail (nativeReplay.handleUncertain),
// landing it in the same log position it held in the old epoch.
func snapshotRecords(records []wire.Record) []wire.Record {
	out := make([]wire.Record, 0, len(records))
	for _, r := range records {
		switch r.(type) {
		case *wire.Halt, *wire.Heartbeat:
			continue
		}
		out = append(out, r)
	}
	if n := len(out); n > 0 {
		if _, ok := out[n-1].(*wire.OutputIntent); ok {
			out = out[:n-1]
		}
	}
	return out
}
