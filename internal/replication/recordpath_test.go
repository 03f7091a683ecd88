package replication

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/programs"
	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The lock-mode record path end to end: what the primary pays per record (no
// clock read, no atomic) and what the cold backup pays per frame before it
// acknowledges (a walk, no records built).

// quietEndpoint is scriptEndpoint without the bookkeeping: acks vanish, so
// nothing of the harness shows in an allocation count.
type quietEndpoint struct{ scriptEndpoint }

func (*quietEndpoint) Send([]byte) error { return nil }

// frameOf encodes records as one ack-wanted frame with sequence 1 — the first
// frame of a stream, which is what every fresh serve call expects.
func frameOf(tb testing.TB, records ...wire.Record) []byte {
	tb.Helper()
	var buf wire.Buffer
	for _, r := range records {
		if err := buf.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	return wire.AppendFrame(nil, &wire.Frame{Seq: 1, AckWanted: true, Payload: buf.Bytes()})
}

// TestColdReceiveAllocsPerFrame: receiving, validating, storing and
// acknowledging a full frame costs the cold backup a constant number of
// allocations (the frame header, the ack, the store's segment list growing),
// not one per record — and the one kind of record it does build, a
// NativeResult, still reaches its side-effect handler at receipt.
func TestColdReceiveAllocsPerFrame(t *testing.T) {
	locks := make([]wire.Record, 512)
	for i := range locks {
		locks[i] = &wire.LockAcq{TID: "0.1", TASN: uint64(40000 + i), LID: int64(i % 7), LASN: uint64(60000 + i)}
	}
	msg := frameOf(t, locks...)
	const runs = 50
	msgs := make([][]byte, runs+1) // AllocsPerRun warms up with one extra call
	for i := range msgs {
		msgs[i] = append([]byte(nil), msg...)
	}
	ep := &quietEndpoint{scriptEndpoint{end: transport.ErrClosed}}
	backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: ep})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ep.msgs = msgs[next : next+1]
		next++
		if outcome, err := backup.Serve(); err != nil || outcome != OutcomePrimaryFailed {
			t.Fatalf("serve: %v, %v", outcome, err)
		}
	})
	if allocs > 4 {
		t.Errorf("cold receive of a 512-record frame: %v allocs, want <= 4", allocs)
	}
	if s := backup.Stats(); s.RecordsLogged != 512*(runs+1) || s.AcksSent != runs+1 || backup.Store().Len() != 512*(runs+1) {
		t.Fatalf("after %d frames: %+v, store holds %d", runs+1, s, backup.Store().Len())
	}

	ep.msgs = [][]byte{frameOf(t, locks[0], &wire.NativeResult{
		TID: "0", NatSeq: 1, Sig: "fs.open",
		Results:     []wire.WireValue{{Kind: wire.WireInt, I: 3}},
		HandlerData: encodeFileOpTest(1, 3, 0, "f"),
	})}
	if _, err := backup.Serve(); err != nil {
		t.Fatal(err)
	}
	if got := backup.Stats().ReceiveRoutings; got != 1 {
		t.Fatalf("receive routings = %d, want 1: handler state must fold at receipt, not at recovery", got)
	}
	recs := backup.Store().Records()
	if _, ok := recs[len(recs)-1].(*wire.NativeResult); !ok || len(recs) != 512*(runs+1)+2 {
		t.Fatalf("store reads back %d records ending in %T", len(recs), recs[len(recs)-1])
	}
}

// TestHeartbeatFramesStoreNothing: an idle primary's heartbeats are counted
// and acknowledged like any frame, and leave nothing behind in the store.
func TestHeartbeatFramesStoreNothing(t *testing.T) {
	var msgs [][]byte
	var hb wire.Buffer
	for seq := uint64(1); seq <= 100; seq++ {
		hb.Reset()
		if err := hb.Append(&wire.Heartbeat{Seq: seq}); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, wire.AppendFrame(nil, &wire.Frame{Seq: seq, Payload: hb.Bytes()}))
	}
	backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: &scriptEndpoint{msgs: msgs, end: transport.ErrClosed}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Serve(); err != nil {
		t.Fatal(err)
	}
	if s := backup.Stats(); s.Heartbeats != 100 || s.FramesReceived != 100 || s.RecordsLogged != 0 {
		t.Fatalf("stats %+v, want 100 heartbeats in 100 frames and nothing logged", s)
	}
	if store := backup.Store(); store.Len() != 0 || len(store.segments) != 0 {
		t.Fatalf("store holds %d records in %d segments after heartbeats only", store.Len(), len(store.segments))
	}
}

// countingClock is the wall clock with its reads counted.
type countingClock struct {
	clock.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time { c.reads.Add(1); return c.Clock.Now() }
func (c *countingClock) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Since(t)
}

// lockLoopProgram acquires one monitor 10 000 times on one thread, then logs
// a native result and commits an output.
const lockLoopProgram = `
static Main.lock
class Lock dummy
native print io.print 1 void
native rand sys.rand 0 value
method main 0 void
  new Lock
  puts Main.lock
  iconst 0
  store 0
loop:
  load 0
  iconst 10000
  icmp
  jz done
  gets Main.lock
  menter
  gets Main.lock
  mexit
  load 0
  iconst 1
  iadd
  store 0
  jmp loop
done:
  call rand
  pop
  sconst "done"
  call print
  ret
end
`

// TestPrimaryClockReadsAreSampled: the primary reads the clock around one
// timed append in recordSample and around each frame it ships — not around
// each record — and still reports a Record estimate; and the per-type counts
// it keeps off the atomics are, once OnHalt has published them, exactly the
// tally of the log the backup holds.
func TestPrimaryClockReadsAreSampled(t *testing.T) {
	clk := &countingClock{Clock: clock.Real}
	pa, pb := transport.Pipe(1024)
	primary, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: pairOf(PairBackendConfig{Endpoint: pa, Clock: clk}), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	pvm, err := primary.NewVM(vm.Config{Program: mustAssemble(t, lockLoopProgram), Env: env.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: pb})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ServeOutcome, 1)
	go func() {
		outcome, err := backup.Serve()
		if err != nil {
			t.Errorf("serve: %v", err)
		}
		done <- outcome
	}()
	if err := pvm.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome := <-done; outcome != OutcomePrimaryCompleted {
		t.Fatalf("backup observed %v", outcome)
	}

	m := primary.Metrics()
	if m.LockRecords < 10000 {
		t.Fatalf("%d lock records, want the loop's 10000", m.LockRecords)
	}
	if reads, limit := uint64(clk.reads.Load()), m.RecordsLogged/32+4*m.FramesSent; reads > limit {
		t.Errorf("%d clock reads for %d records in %d frames, want <= %d: a per-record read is back", reads, m.RecordsLogged, m.FramesSent, limit)
	}
	if m.Record <= 0 {
		t.Errorf("Record = %v, want a sampled estimate above zero", m.Record)
	}
	var tally [wire.NumRecTypes]uint64
	log := backup.Store().Records()
	for _, r := range log {
		tally[r.Type()]++
	}
	got := []uint64{m.RecordsLogged, m.LockRecords, m.IDMapRecords, m.SwitchRecords, m.NativeRecords, m.OutputIntents}
	want := []uint64{uint64(len(log)), tally[wire.RecLockAcq], tally[wire.RecIDMap], tally[wire.RecSwitch], tally[wire.RecNativeResult], tally[wire.RecOutputIntent]}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Metrics() counts (all, lock, idmap, switch, native, intent) = %v, the log tallies %v", got, want)
		}
	}
}

// pairRun runs a benchmark program replicated in lock mode to a cold backup,
// batching flushEvery records (0: the default), and returns the primary, the
// backup and the frames the primary shipped. With decorate, the primary's
// pair backend is handed to it behind a pass-through decorator, as the
// benchmark spine's traced run wraps it.
func pairRun(tb testing.TB, name string, flushEvery int, decorate bool) (*Primary, *Backup, [][]byte) {
	tb.Helper()
	prog, err := programs.Compile(name, 1)
	if err != nil {
		tb.Fatal(err)
	}
	pa, pb := transport.Pipe(64)
	tap := &tapEndpoint{Endpoint: pa}
	pc := PrimaryConfig{Mode: ModeLock, Backend: pairOf(PairBackendConfig{Endpoint: tap}), FlushEvery: flushEvery}
	if decorate {
		pc.Backend = struct{ CoordinationBackend }{pc.Backend}
	}
	primary, err := NewPrimary(pc)
	if err != nil {
		tb.Fatal(err)
	}
	pvm, err := primary.NewVM(vm.Config{Program: prog, Env: env.New(1)})
	if err != nil {
		tb.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: pb})
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := backup.Serve(); done <- err }()
	if err := pvm.Run(); err != nil {
		tb.Fatal(err)
	}
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
	return primary, backup, tap.sent
}

// TestShipAtCommitPoints: under the default FlushEvery the db primary ships
// a frame only where it waits for the backup — at each output commit and at
// the halt — and never one mid-interval.
func TestShipAtCommitPoints(t *testing.T) {
	primary, _, _ := pairRun(t, "db", 0, false)
	if m := primary.Metrics(); m.FramesSent != 702 || m.AcksAwaited != 702 {
		t.Fatalf("%d frames for %d acks awaited, want 702 of each", m.FramesSent, m.AcksAwaited)
	}
}

// TestShippedCountsIgnoreDecoration: one definition of what was shipped. The
// primary counts the same frames, bytes, acknowledgements and records whether
// it drives its own pair backend or the same backend behind a decorator.
func TestShippedCountsIgnoreDecoration(t *testing.T) {
	own, _, _ := pairRun(t, "db", 0, false)
	wrapped, _, _ := pairRun(t, "db", 0, true)
	a, b := own.Metrics(), wrapped.Metrics()
	got := []uint64{b.FramesSent, b.BytesSent, b.AcksAwaited, b.RecordsLogged}
	if want := []uint64{a.FramesSent, a.BytesSent, a.AcksAwaited, a.RecordsLogged}; !slices.Equal(got, want) {
		t.Fatalf("decorated pair counts (frames, bytes, acks, records) %v, its own pair %v", got, want)
	}
}

// TestShipPolicyMovesFrameBoundariesOnly: the batch size decides where frames
// end, never what the backup logs — the record stream is the same bytes
// under 4-record batches, 512 and the default.
func TestShipPolicyMovesFrameBoundariesOnly(t *testing.T) {
	for _, name := range []string{"db", "jack", "mtrt"} {
		var want []byte
		for _, fe := range []int{4, 512, 0} {
			_, backup, _ := pairRun(t, name, fe, false)
			var log wire.Buffer
			for _, r := range backup.Store().Records() {
				if err := log.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if want == nil {
				want = bytes.Clone(log.Bytes())
			} else if !bytes.Equal(log.Bytes(), want) {
				t.Errorf("%s: FlushEvery %d logs %d bytes that differ from 4-record batches' %d", name, fe, log.Len(), len(want))
			}
		}
	}
}

// BenchmarkColdReceive is the backup's side of the db-lock workload alone:
// the db program's own frame stream (411 k records in 702 frames, one per
// output commit under the default FlushEvery) sent down a pipe to a cold
// backup's receive loop, to the halt marker's acknowledgement.
func BenchmarkColdReceive(b *testing.B) {
	_, backup, msgs := pairRun(b, "db", 0, false)
	records := backup.Store().Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, pb := transport.Pipe(len(msgs))
		backup, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: pb})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan ServeOutcome, 1)
		go func() { outcome, _ := backup.Serve(); done <- outcome }()
		for _, msg := range msgs {
			if err := pa.Send(msg); err != nil {
				b.Fatal(err)
			}
		}
		if outcome := <-done; outcome != OutcomePrimaryCompleted || backup.Store().Len() != records {
			b.Fatalf("backup observed %v and holds %d of %d records", outcome, backup.Store().Len(), records)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	// The pipe's copy of each message (one allocation, the frame's bytes) is
	// in these numbers on any commit; the rest is the receive loop's.
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n/float64(records), "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n/float64(records), "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n/float64(len(msgs)), "allocs/frame")
}
