package replication

import (
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// PrimaryMetrics is a point-in-time snapshot of the primary's replication
// overhead decomposition, mirroring Figures 3 and 4: Communication is time
// spent shipping log frames, Pessimism is time spent waiting for
// output-commit acknowledgements, and Record is time spent building/storing
// lock-acquisition or thread-scheduling records ("Lock Acquire Overhead" /
// "Rescheduling Overhead").
//
// Record is a sampled estimate, not a sum: one such append in 64 is timed and
// counted 64 times over (Primary.append) — two clock reads cost several times
// the append between them — so a run with fewer than 64 reads zero. The
// record counts are exact as of the primary's last flush (or its OnHalt).
type PrimaryMetrics struct {
	Communication time.Duration
	Pessimism     time.Duration
	Record        time.Duration

	RecordsLogged   uint64 // "Logged Messages" in Table 2
	LockRecords     uint64
	IDMapRecords    uint64
	SwitchRecords   uint64
	NativeRecords   uint64
	OutputIntents   uint64
	FramesSent      uint64
	BytesSent       uint64
	AcksAwaited     uint64
	HeartbeatsSent  uint64
	AckTimeouts     uint64
	StaleAcks       uint64 // acks from another epoch, skipped
	Desyncs         uint64 // undecodable acks / acks for unsent frames
	LargestFrameLen int
	BackupLost      bool
}

// primaryMetrics is the live counterpart of PrimaryMetrics. The VM goroutine
// and the heartbeat goroutine both write to it, and Metrics() may be polled
// from any goroutine, so every field is atomic; Snapshot assembles a plain
// read-only copy. (Individual fields are read independently — the snapshot is
// not a single linearization point, which is fine for monitoring counters.)
type primaryMetrics struct {
	communicationNS atomic.Int64
	pessimismNS     atomic.Int64
	recordNS        atomic.Int64

	// byType is the records buffered by wire.RecType as of the primary's last
	// flush (Primary.publish stores here per frame, nothing per record).
	byType         [wire.NumRecTypes]atomic.Uint64
	framesSent     atomic.Uint64
	bytesSent      atomic.Uint64
	acksAwaited    atomic.Uint64
	heartbeatsSent atomic.Uint64
	ackTimeouts    atomic.Uint64
	staleAcks      atomic.Uint64
	desyncs        atomic.Uint64
	largestFrame   atomic.Int64
	backupLost     atomic.Bool
}

func (m *primaryMetrics) addCommunication(d time.Duration) { m.communicationNS.Add(int64(d)) }
func (m *primaryMetrics) addPessimism(d time.Duration)     { m.pessimismNS.Add(int64(d)) }
func (m *primaryMetrics) addRecord(d time.Duration)        { m.recordNS.Add(int64(d)) }

// observeFrame accounts one shipped frame of n bytes.
func (m *primaryMetrics) observeFrame(n int) {
	m.framesSent.Add(1)
	m.bytesSent.Add(uint64(n))
	for {
		cur := m.largestFrame.Load()
		if int64(n) <= cur || m.largestFrame.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy for reporting.
func (m *primaryMetrics) Snapshot() PrimaryMetrics {
	var n [wire.NumRecTypes]uint64
	var total uint64
	for t := range n {
		n[t] = m.byType[t].Load()
		total += n[t]
	}
	return PrimaryMetrics{
		Communication:   time.Duration(m.communicationNS.Load()),
		Pessimism:       time.Duration(m.pessimismNS.Load()),
		Record:          time.Duration(m.recordNS.Load()),
		RecordsLogged:   total,
		LockRecords:     n[wire.RecLockAcq] + n[wire.RecLockInterval],
		IDMapRecords:    n[wire.RecIDMap],
		SwitchRecords:   n[wire.RecSwitch],
		NativeRecords:   n[wire.RecNativeResult],
		OutputIntents:   n[wire.RecOutputIntent],
		FramesSent:      m.framesSent.Load(),
		BytesSent:       m.bytesSent.Load(),
		AcksAwaited:     m.acksAwaited.Load(),
		HeartbeatsSent:  m.heartbeatsSent.Load(),
		AckTimeouts:     m.ackTimeouts.Load(),
		StaleAcks:       m.staleAcks.Load(),
		Desyncs:         m.desyncs.Load(),
		LargestFrameLen: int(m.largestFrame.Load()),
		BackupLost:      m.backupLost.Load(),
	}
}
