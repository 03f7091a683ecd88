package replication

import (
	"errors"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Table tests for the log store and promotion helpers at the
// CoordinationBackend boundary (PR 8): what a backend delivers is a record
// stream, and these are the pieces that index, filter, and re-ship it.

func TestLogStoreAppendLenRecords(t *testing.T) {
	s := NewLogStore()
	if s.Len() != 0 {
		t.Fatalf("fresh store Len = %d", s.Len())
	}
	s.Append(&wire.LockAcq{TID: "t1", TASN: 1, LID: 7, LASN: 1})
	s.Append(&wire.IDMap{LID: 7, TID: "t1", TASN: 1}, &wire.Halt{})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := s.Records()
	if len(got) != 3 {
		t.Fatalf("Records len = %d, want 3", len(got))
	}
	// The returned slice is a copy: appending through it must not alias the
	// store's backing array.
	got[0] = &wire.Halt{}
	if _, ok := s.Records()[0].(*wire.LockAcq); !ok {
		t.Fatal("Records() exposed the store's backing array")
	}
}

func TestAnalyzeTable(t *testing.T) {
	intent := &wire.OutputIntent{TID: "t1", NatSeq: 1, Sig: "sys.print"}
	cases := []struct {
		name      string
		records   []wire.Record
		uncertain bool
		cleanHalt bool
		maxLID    int64
		wantErr   bool
	}{
		{name: "empty"},
		{
			name:      "trailing intent is uncertain",
			records:   []wire.Record{&wire.LockAcq{TID: "t1", LID: 2}, intent},
			uncertain: true,
			maxLID:    2,
		},
		{
			name:    "intent followed by result is certain",
			records: []wire.Record{intent, &wire.NativeResult{TID: "t1", NatSeq: 1, Sig: "sys.rand"}},
		},
		{
			// Heartbeats are liveness-only: one arriving after the intent must
			// not hide that the output's completion is unknown.
			name:      "trailing heartbeat does not mask uncertainty",
			records:   []wire.Record{intent, &wire.Heartbeat{Seq: 9}},
			uncertain: true,
		},
		{
			name:      "clean halt",
			records:   []wire.Record{&wire.IDMap{LID: 5, TID: "t1", TASN: 1}, &wire.Halt{}},
			cleanHalt: true,
			maxLID:    5,
		},
		{
			name: "duplicate id map rejected",
			records: []wire.Record{
				&wire.IDMap{LID: 1, TID: "t1", TASN: 3},
				&wire.IDMap{LID: 2, TID: "t1", TASN: 3},
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := analyze(tc.records)
			if tc.wantErr {
				if err == nil {
					t.Fatal("analyze accepted a malformed log")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := a.uncertain != nil; got != tc.uncertain {
				t.Fatalf("uncertain = %v, want %v", got, tc.uncertain)
			}
			if a.cleanHalt != tc.cleanHalt {
				t.Fatalf("cleanHalt = %v, want %v", a.cleanHalt, tc.cleanHalt)
			}
			if a.maxLID != tc.maxLID {
				t.Fatalf("maxLID = %d, want %d", a.maxLID, tc.maxLID)
			}
		})
	}
}

func TestSnapshotRecordsTable(t *testing.T) {
	acq := &wire.LockAcq{TID: "t1", LID: 1}
	intent := &wire.OutputIntent{TID: "t1", NatSeq: 2, Sig: "sys.print"}
	cases := []struct {
		name string
		in   []wire.Record
		want int
	}{
		{name: "empty", in: nil, want: 0},
		{name: "halt and heartbeat dropped", in: []wire.Record{acq, &wire.Heartbeat{Seq: 1}, &wire.Halt{}}, want: 1},
		{name: "trailing intent withheld", in: []wire.Record{acq, intent}, want: 1},
		{name: "mid-log intent kept", in: []wire.Record{intent, acq}, want: 2},
		{
			// A heartbeat after the intent must not shield it: the *filtered*
			// tail decides, or a stale heartbeat would re-ship an output whose
			// certainty belongs to the promoted replica.
			name: "intent before trailing heartbeat still withheld",
			in:   []wire.Record{acq, intent, &wire.Heartbeat{Seq: 3}},
			want: 1,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out := snapshotRecords(tc.in)
			if len(out) != tc.want {
				t.Fatalf("snapshotRecords kept %d records, want %d", len(out), tc.want)
			}
			for _, r := range out {
				switch r.(type) {
				case *wire.Halt, *wire.Heartbeat:
					t.Fatalf("snapshot leaked a %s record", r.Type())
				}
			}
		})
	}
}

// TestPreparePromotionBackendEpoch pins the promotion hook at the backend
// boundary: the epoch that gates a takeover is the one the tail will
// actually stamp, its backend's.
func TestPreparePromotionBackendEpoch(t *testing.T) {
	mkBackup := func(epoch uint64) *Backup {
		_, bEnd := transport.Pipe(4)
		b, err := NewBackup(BackupConfig{Mode: ModeLock, Endpoint: bEnd, Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	mkPairBackend := func(epoch uint64) *PairBackend {
		pEnd, _ := transport.Pipe(4)
		pb, err := NewPairBackend(PairBackendConfig{Endpoint: pEnd, Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return pb
	}
	backendCfg := func(epoch uint64) PrimaryConfig {
		return PrimaryConfig{Mode: ModeLock, Backend: mkPairBackend(epoch)}
	}

	t.Run("config epoch must exceed view", func(t *testing.T) {
		for _, stale := range []uint64{2, 3} {
			if _, err := PreparePromotion(mkBackup(3), RecoverConfig{}, backendCfg(stale)); err == nil {
				t.Fatalf("backend epoch %d accepted over view 3", stale)
			}
		}
		p, err := PreparePromotion(mkBackup(3), RecoverConfig{}, backendCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Tail().Epoch(); got != 4 {
			t.Fatalf("tail epoch = %d, want 4", got)
		}
	})
	t.Run("explicit backend epoch wins", func(t *testing.T) {
		p, err := PreparePromotion(mkBackup(3), RecoverConfig{}, backendCfg(9))
		if err != nil || p.Tail().Epoch() != 9 {
			t.Fatalf("backend at epoch 9: %v", err)
		}
		if _, err := PreparePromotion(mkBackup(3), RecoverConfig{}, PrimaryConfig{Mode: ModeLock}); err == nil {
			t.Fatal("a tail with no backend accepted")
		}
	})
	t.Run("mode mismatch", func(t *testing.T) {
		cfg := backendCfg(5)
		cfg.Mode = ModeSched
		if _, err := PreparePromotion(mkBackup(1), RecoverConfig{}, cfg); err == nil {
			t.Fatal("mode mismatch accepted")
		}
	})
}

// TestPrimaryRequiresEndpointOrBackend pins NewPrimary's construction rule:
// the backend is required, since the link and its settings live there.
func TestPrimaryRequiresEndpointOrBackend(t *testing.T) {
	if _, err := NewPrimary(PrimaryConfig{Mode: ModeLock}); err == nil {
		t.Fatal("NewPrimary accepted no backend")
	}
	pEnd, _ := transport.Pipe(4)
	pb, err := NewPairBackend(PairBackendConfig{Endpoint: pEnd})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(PrimaryConfig{Mode: ModeLock, Backend: pb})
	if err != nil {
		t.Fatal(err)
	}
	if p.Backend() != CoordinationBackend(pb) {
		t.Fatal("explicit backend not adopted")
	}
	if errors.Is(err, ErrBackupLost) {
		t.Fatal("unexpected loss")
	}
}
