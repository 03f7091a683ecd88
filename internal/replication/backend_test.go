package replication

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/env"
	"repro/internal/minilang"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// pairOf is the pair backend cfg describes, for a cfg the test knows is valid.
func pairOf(cfg PairBackendConfig) *PairBackend {
	pb, err := NewPairBackend(cfg)
	if err != nil {
		panic(err)
	}
	return pb
}

// encodeRecords packs records into one backend payload (what Primary.flush
// hands to Ship).
func encodeRecords(t *testing.T, recs ...wire.Record) []byte {
	t.Helper()
	var buf wire.Buffer
	for _, r := range recs {
		if err := buf.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out
}

// TestPairBackendShipCommit drives the extracted pair backend directly
// against a cold backup: async ship, then a committing ship that must block
// until the backup logged everything.
func TestPairBackendShipCommit(t *testing.T) {
	pEnd, bEnd := transport.Pipe(64)
	pb, err := NewPairBackend(PairBackendConfig{Endpoint: pEnd})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: bEnd})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var outcome ServeOutcome
	go func() {
		defer close(done)
		outcome, _ = backup.Serve()
	}()

	if err := pb.Ship(encodeRecords(t, &wire.IDMap{LID: 1, TID: "t1", TASN: 1}), false); err != nil {
		t.Fatalf("async ship: %v", err)
	}
	if err := pb.Ship(encodeRecords(t, &wire.LockAcq{TID: "t1", TASN: 1, LID: 1, LASN: 1}), true); err != nil {
		t.Fatalf("committing ship: %v", err)
	}
	// The commit returned, so both batches are durably logged — no races, no
	// sleeps: that is the §3.4 guarantee itself.
	if got := backup.Store().Len(); got != 2 {
		t.Fatalf("backup logged %d records at commit time, want 2", got)
	}
	if pb.Lost() {
		t.Fatal("healthy backend reports Lost")
	}
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if outcome != OutcomePrimaryFailed {
		t.Fatalf("outcome = %v, want primary failed (closed without halt)", outcome)
	}
}

// TestPairBackendLostLatch: a dead channel latches Lost and every later Ship
// fails fast with ErrBackupLost.
func TestPairBackendLostLatch(t *testing.T) {
	pEnd, bEnd := transport.Pipe(4)
	pb, err := NewPairBackend(PairBackendConfig{Endpoint: pEnd})
	if err != nil {
		t.Fatal(err)
	}
	_ = bEnd.Close()
	// The pipe may accept a buffered send after the peer closed; the commit
	// wait cannot succeed, so Lost latches by the second ship at the latest.
	err = pb.Ship(encodeRecords(t, &wire.Halt{}), true)
	if !errors.Is(err, ErrBackupLost) {
		t.Fatalf("ship into closed channel: %v, want ErrBackupLost", err)
	}
	if !pb.Lost() {
		t.Fatal("loss not latched")
	}
	if err := pb.Ship([]byte{}, false); !errors.Is(err, ErrBackupLost) {
		t.Fatalf("post-loss ship: %v, want fast ErrBackupLost", err)
	}
	pb.Quiesce() // no heartbeat loop configured: must be a safe no-op
}

// fakeBackend is a scripted CoordinationBackend for exercising the
// backend-generic half of Primary. With latchAfter set it acknowledges that
// many commits and then latches Lost without failing a Ship, as a failure
// detector does between two of them.
type fakeBackend struct {
	ships      [][]byte
	commits    int
	fail       error
	latchAfter int
	lost       atomic.Bool
	epoch      uint64
	closed     bool
}

func (f *fakeBackend) Ship(payload []byte, commit bool) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	f.ships = append(f.ships, cp)
	if commit {
		f.commits++
		if f.commits == f.latchAfter {
			f.lost.Store(true)
		}
	}
	if f.fail != nil {
		f.lost.Store(true)
		return f.fail
	}
	return nil
}
func (f *fakeBackend) Epoch() uint64 { return f.epoch }
func (f *fakeBackend) Lost() bool    { return f.lost.Load() }
func (f *fakeBackend) Quiesce()      {}
func (f *fakeBackend) Close() error  { f.closed = true; return nil }

// TestPrimaryExternalBackend drives Primary's generic flush path through a
// scripted backend: batching by FlushEvery, commit flushes, metric
// accounting, epoch passthrough, and loss propagation.
func TestPrimaryExternalBackend(t *testing.T) {
	fb := &fakeBackend{epoch: 42}
	p, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: fb, FlushEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch() != 42 {
		t.Fatalf("Epoch() = %d, want backend's 42", p.Epoch())
	}
	// Two appends hit FlushEvery and ship one async batch.
	if err := p.append(&wire.IDMap{LID: 1, TID: "t1", TASN: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := p.append(&wire.LockAcq{TID: "t1", TASN: 1, LID: 1, LASN: 1}, false); err != nil {
		t.Fatal(err)
	}
	if len(fb.ships) != 1 || fb.commits != 0 {
		t.Fatalf("ships=%d commits=%d after batch, want 1/0", len(fb.ships), fb.commits)
	}
	recs, err := wire.DecodeAll(fb.ships[0])
	if err != nil || len(recs) != 2 {
		t.Fatalf("shipped batch decode: %d records, err %v", len(recs), err)
	}
	// A commit flush ships the (empty) buffer with the commit flag and is
	// accounted as awaited pessimism.
	if err := p.flush(true); err != nil {
		t.Fatal(err)
	}
	if fb.commits != 1 {
		t.Fatalf("commits = %d, want 1", fb.commits)
	}
	m := p.Metrics()
	if m.AcksAwaited != 1 || m.FramesSent != 2 || m.RecordsLogged != 2 {
		t.Fatalf("metrics AcksAwaited=%d FramesSent=%d RecordsLogged=%d, want 1/2/2",
			m.AcksAwaited, m.FramesSent, m.RecordsLogged)
	}

	// Loss: the backend latches, the append path surfaces ErrBackupLost, and
	// the metrics mirror the verdict.
	fb.fail = ErrBackupLost
	if err := p.flush(true); !errors.Is(err, ErrBackupLost) {
		t.Fatalf("flush after backend failure: %v", err)
	}
	if !p.BackupLost() {
		t.Fatal("BackupLost() false after backend latched")
	}
	if err := p.append(&wire.Halt{}, false); !errors.Is(err, ErrBackupLost) {
		t.Fatalf("append after loss: %v", err)
	}
	if !p.Metrics().BackupLost {
		t.Fatal("metrics did not mirror the loss")
	}
}

// TestNoOutputAfterLoss: a backend that latches Lost between two outputs —
// a failed heartbeat send, a stopped consensus leader — stops the next output
// before it is performed: the run aborts with ErrBackupLost and the console
// holds only what was committed.
func TestNoOutputAfterLoss(t *testing.T) {
	prog, err := minilang.Compile("outputs", `func main() { print("a"); print("b"); print("c"); }`)
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{latchAfter: 1}
	p, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	environ := env.New(1)
	v, err := p.NewVM(vm.Config{Program: prog, Env: environ})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); !errors.Is(err, ErrBackupLost) {
		t.Fatalf("run after the loss latched: %v, want ErrBackupLost", err)
	}
	if lines := environ.Console().Lines(); !slices.Equal(lines, []string{"a"}) || fb.commits != 1 {
		t.Fatalf("console %q after %d commits, want [\"a\"] after 1", lines, fb.commits)
	}
}
