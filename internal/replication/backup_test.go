package replication

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/native"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// backupProgram puts every kind of record the receive loop treats specially
// on the wire in a handful of frames: handler-managed natives (fs.*, whose
// results carry handler data for receive), plain non-deterministic results,
// output commits (AckWanted frames), and the clean halt.
const backupProgram = `
native print io.print 1 void
native rand sys.rand 0 value
native fopen fs.open 2 value
native fwrite fs.write 2 value
native fclose fs.close 1 void
method main 0 void
  sconst "out.dat"
  iconst 1
  call fopen
  store 0
  call rand
  pop
  load 0
  sconst "hello"
  call fwrite
  pop
  call rand
  pop
  sconst "mid"
  call print
  call rand
  pop
  load 0
  call fclose
  sconst "end"
  call print
  ret
end
`

// backupEpoch is the view the captured stream is stamped with: above zero,
// so that a stale epoch exists.
const backupEpoch = 5

// tapEndpoint records every message sent through it.
type tapEndpoint struct {
	transport.Endpoint
	sent [][]byte
}

func (e *tapEndpoint) Send(b []byte) error {
	e.sent = append(e.sent, append([]byte(nil), b...))
	return e.Endpoint.Send(b)
}

// scriptEndpoint is the backup's end of a channel whose primary is a script:
// Recv hands out the scripted messages in order and then reports end; Send
// collects the acknowledgements.
type scriptEndpoint struct {
	msgs [][]byte
	end  error
	acks [][]byte
}

func (e *scriptEndpoint) Recv(time.Duration) ([]byte, error) {
	if len(e.msgs) == 0 {
		return nil, e.end
	}
	msg := e.msgs[0]
	e.msgs = e.msgs[1:]
	return msg, nil
}

func (e *scriptEndpoint) Send(b []byte) error {
	e.acks = append(e.acks, append([]byte(nil), b...))
	return nil
}

func (e *scriptEndpoint) Close() error { return nil }

// captureCleanStream runs backupProgram to clean completion against a cold
// backup and returns the frames the primary shipped.
func captureCleanStream(t *testing.T, prog *bytecode.Program, mode Mode) []wire.Frame {
	t.Helper()
	pa, pb := transport.Pipe(1024)
	tap := &tapEndpoint{Endpoint: pa}
	// FlushEvery 4 cuts the stream into many frames. AckTimeout turns a
	// closing sync the backup never answers into a failure here.
	primary, err := NewPrimary(PrimaryConfig{
		Mode: mode, Backend: pairOf(PairBackendConfig{Endpoint: tap, Epoch: backupEpoch, AckTimeout: 5 * time.Second}), FlushEvery: 4,
		Policy: vm.NewSeededPolicy(3, 64, 512),
	})
	if err != nil {
		t.Fatal(err)
	}
	pvm, err := primary.NewVM(vm.Config{Program: prog, Env: env.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: pb, Epoch: backupEpoch})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ServeOutcome, 1)
	go func() {
		outcome, err := backup.Serve()
		if err != nil {
			t.Errorf("capture run: serve: %v", err)
		}
		done <- outcome
	}()
	if err := pvm.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome := <-done; outcome != OutcomePrimaryCompleted {
		t.Fatalf("capture run: backup observed %v", outcome)
	}
	frames := make([]wire.Frame, len(tap.sent))
	for i, msg := range tap.sent {
		if frames[i], err = wire.DecodeFrame(msg); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames) < 4 {
		t.Fatalf("captured %d frames, want a handful", len(frames))
	}
	return frames
}

// played is what one backup made of one scripted stream.
type played struct {
	outcome ServeOutcome
	stats   BackupStats
	acks    [][]byte
	console []string
}

// playCold and playWarm feed msgs to a fresh backup — the two readers of the
// one receive loop's log — and, if the stream does not end in a clean halt,
// let it finish the program (cold: Recover; warm: it already is).
func playCold(t *testing.T, prog *bytecode.Program, mode Mode, msgs [][]byte, end error) played {
	t.Helper()
	ep := &scriptEndpoint{msgs: msgs, end: end}
	backup, err := NewBackup(BackupConfig{Mode: mode, Endpoint: ep, Epoch: backupEpoch})
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := backup.Serve()
	if err != nil {
		t.Fatalf("cold serve: %v", err)
	}
	environ := env.New(7)
	if outcome.Failed() {
		if _, _, err := backup.Recover(RecoverConfig{Program: prog, Env: environ}); err != nil {
			t.Fatalf("cold recover: %v", err)
		}
	}
	return played{outcome, backup.Stats(), ep.acks, environ.Console().Lines()}
}

func playWarm(t *testing.T, prog *bytecode.Program, mode Mode, msgs [][]byte, end error) played {
	t.Helper()
	ep := &scriptEndpoint{msgs: msgs, end: end}
	warm, err := NewBackup(BackupConfig{Mode: mode, Endpoint: ep, Epoch: backupEpoch})
	if err != nil {
		t.Fatal(err)
	}
	environ := env.New(7)
	_, res, err := warm.RunWarm(RecoverConfig{Program: prog, Env: environ})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	return played{res.Outcome, res.Serve, ep.acks, environ.Console().Lines()}
}

// countRecords returns how many of the frames' records a backup logs: all
// but heartbeats.
func countRecords(t *testing.T, frames []wire.Frame) (n uint64) {
	t.Helper()
	for _, f := range frames {
		recs, err := wire.DecodeAll(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, hb := r.(*wire.Heartbeat); !hb {
				n++
			}
		}
	}
	return n
}

// TestBackupAdmissionTable drives the one receive loop through every
// admission verdict and every record kind it singles out, against both of
// its sinks. Each case is a mutation of one captured clean frame stream; a
// cold and a warm backup must make exactly the same of it — outcome, every
// BackupStats field, every acknowledgement byte — and, where the stream
// breaks off, both must still finish the program with the reference output.
// The clean row is what pins BackupStats to one meaning: the halt marker is
// a logged record for both.
func TestBackupAdmissionTable(t *testing.T) {
	prog := mustAssemble(t, backupProgram)
	var hb wire.Buffer
	if err := hb.Append(&wire.Heartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// counts are the BackupStats fields a case pins exactly; AcksSent and
	// ReceiveRoutings depend on where the stream was cut and are compared
	// between the sinks (and, for acks, against the bytes actually sent).
	type counts struct{ frames, records, corrupt, stale, dups, gaps, beats uint64 }
	for _, mode := range []Mode{ModeLock, ModeSched, ModeLockInterval} {
		clean := captureCleanStream(t, prog, mode)
		f0, f1 := clean[0], clean[1]
		n, all, one, two := uint64(len(clean)), countRecords(t, clean), countRecords(t, clean[:1]), countRecords(t, clean[:2])
		// wanted counts the frames that ask for an acknowledgement.
		wanted := func(frames []wire.Frame) (n uint64) {
			for _, f := range frames {
				if f.AckWanted {
					n++
				}
			}
			return n
		}
		ackAll, ackOne, ackTwo := wanted(clean), wanted(clean[:1]), wanted(clean[:2])
		// script is head followed by the rest of the clean stream, renumbered
		// by shift where head holds one frame more than it replaces.
		script := func(shift uint64, head ...wire.Frame) [][]byte {
			for _, f := range clean[2:] {
				f.Seq += shift
				head = append(head, f)
			}
			out := make([][]byte, len(head))
			for i := range head {
				out[i] = wire.EncodeFrame(&head[i])
			}
			return out
		}
		mutate := func(f wire.Frame, edit func(*wire.Frame)) wire.Frame {
			edit(&f)
			return f
		}
		cases := []struct {
			name    string
			msgs    [][]byte
			end     error
			outcome ServeOutcome
			counts  counts
			acks    uint64 // acknowledgements the stream must draw, exactly
		}{
			{name: "clean stream ends in halt", msgs: script(0, f0, f1),
				outcome: OutcomePrimaryCompleted, counts: counts{frames: n, records: all}, acks: ackAll},
			{name: "corrupt envelope", msgs: append(script(0, f0)[:1], []byte{0x01}),
				outcome: OutcomePrimaryFailed, counts: counts{frames: 1, records: one, corrupt: 1}, acks: ackOne},
			{name: "corrupt payload", msgs: script(0, f0, mutate(f1, func(f *wire.Frame) { f.Payload = []byte{0xff, 0xff, 0xff} }))[:2],
				outcome: OutcomePrimaryFailed, counts: counts{frames: 2, records: one, corrupt: 1}, acks: ackOne},
			{name: "stale epoch is dropped and never acked",
				msgs:    script(0, f0, mutate(f1, func(f *wire.Frame) { f.Epoch, f.AckWanted = backupEpoch-1, true }), f1),
				outcome: OutcomePrimaryCompleted, counts: counts{frames: n, records: all, stale: 1}, acks: ackAll},
			{name: "future epoch fails the primary unacked",
				msgs:    script(0, f0, mutate(f1, func(f *wire.Frame) { f.Epoch, f.AckWanted = backupEpoch+1, true }))[:2],
				outcome: OutcomePrimaryFailed, counts: counts{frames: 1, records: one}, acks: ackOne},
			{name: "duplicate is re-acked and not re-logged",
				msgs:    script(0, f0, mutate(f0, func(f *wire.Frame) { f.AckWanted = true }), f1),
				outcome: OutcomePrimaryCompleted, counts: counts{frames: n, records: all, dups: 1}, acks: ackAll + 1},
			{name: "gap fails the primary", msgs: script(0, f0, mutate(f1, func(f *wire.Frame) { f.Seq++ }))[:2],
				outcome: OutcomePrimaryFailed, counts: counts{frames: 1, records: one, gaps: 1}, acks: ackOne},
			{name: "heartbeat-only frame logs nothing",
				msgs:    script(1, f0, wire.Frame{Seq: f1.Seq, Epoch: backupEpoch, Payload: hb.Bytes()}, mutate(f1, func(f *wire.Frame) { f.Seq++ })),
				outcome: OutcomePrimaryCompleted, counts: counts{frames: n + 1, records: all, beats: 1}, acks: ackAll},
			{name: "silence times the primary out", msgs: script(0, f0, f1)[:2], end: transport.ErrTimeout,
				outcome: OutcomePrimaryTimedOut, counts: counts{frames: 2, records: two}, acks: ackTwo},
		}
		for i, tc := range cases {
			if tc.end == nil {
				tc.end = transport.ErrClosed
			}
			name := mode.String() + "/" + tc.name
			cold := playCold(t, prog, mode, tc.msgs, tc.end)
			warm := playWarm(t, prog, mode, tc.msgs, tc.end)
			s := cold.stats
			if i == 0 && (ackOne == 0 || s.ReceiveRoutings == 0) {
				t.Fatalf("%s: first frame wants %d acks, stream has %d receive routings; the table needs both", name, ackOne, s.ReceiveRoutings)
			}
			got := counts{s.FramesReceived, s.RecordsLogged, s.CorruptFrames, s.StaleEpochs, s.DuplicateFrames, s.SeqGaps, s.Heartbeats}
			if cold.outcome != tc.outcome || got != tc.counts || s.AcksSent != tc.acks {
				t.Errorf("%s: cold backup: %v %+v, %d acks; want %v %+v, %d acks", name, cold.outcome, got, s.AcksSent, tc.outcome, tc.counts, tc.acks)
			}
			if warm.outcome != cold.outcome || warm.stats != cold.stats {
				t.Errorf("%s: the sinks disagree:\ncold %v %+v\nwarm %v %+v", name, cold.outcome, cold.stats, warm.outcome, warm.stats)
			}
			if uint64(len(cold.acks)) != s.AcksSent || len(warm.acks) != len(cold.acks) {
				t.Fatalf("%s: cold sent %d acks, warm %d, AcksSent says %d", name, len(cold.acks), len(warm.acks), s.AcksSent)
			}
			for i := range cold.acks {
				if epoch, _, err := wire.DecodeAck(cold.acks[i]); err != nil || epoch != backupEpoch || !bytes.Equal(cold.acks[i], warm.acks[i]) {
					t.Errorf("%s: ack %d: cold %x warm %x (epoch %d, err %v)", name, i, cold.acks[i], warm.acks[i], epoch, err)
				}
			}
			// The warm backup always executes the program, the cold one only
			// to recover; whoever did must have produced each output once.
			if got := strings.Join(warm.console, "\n"); got != "mid\nend" {
				t.Errorf("%s: warm console %q", name, warm.console)
			}
			if got := strings.Join(cold.console, "\n"); cold.outcome.Failed() && got != "mid\nend" {
				t.Errorf("%s: recovered cold console %q", name, cold.console)
			}
		}
	}
}

// TestBackupRejectsRegistryMissingHandlerNative: a registry that lacks a
// native the handler set manages used to be noticed by the debugger's
// set-up only; a backup given one served until the first fs.open result and
// failed there. Every constructor refuses it now, naming the native.
func TestBackupRejectsRegistryMissingHandlerNative(t *testing.T) {
	std := native.StdLib()
	reg := native.NewRegistry()
	for _, sig := range std.Sigs() {
		if def, _ := std.Lookup(sig); sig != "fs.open" {
			reg.MustRegister(def)
		}
	}
	_, pb := transport.Pipe(1)
	cfg := BackupConfig{Mode: ModeLock, Endpoint: pb, Natives: reg}
	_, backupErr := NewBackup(cfg)
	_, engErr := NewReplayEngine(ModeLock, nil, nil, reg, nil)
	for who, err := range map[string]error{"NewBackup": backupErr, "NewReplayEngine": engErr} {
		if err == nil || !strings.Contains(err.Error(), "fs.open") {
			t.Errorf("%s with a registry missing fs.open: error %v, want one naming fs.open", who, err)
		}
	}
}

// TestOfflineBackupDoesNotServe: a backup built without an endpoint loads and
// recovers; asking it to serve is an error, not a nil dereference.
func TestOfflineBackupDoesNotServe(t *testing.T) {
	b, err := NewBackup(BackupConfig{Mode: ModeLock})
	if err != nil {
		t.Fatal(err)
	}
	if outcome, err := b.Serve(); err == nil {
		t.Fatalf("offline backup served: outcome %v", outcome)
	}
	if _, _, err := b.RunWarm(RecoverConfig{Program: mustAssemble(t, backupProgram), Env: env.New(7)}); err == nil {
		t.Fatal("offline backup ran warm")
	}
}
