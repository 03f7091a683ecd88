package replication_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ftvm "repro"
	"repro/internal/bytecode"
	"repro/internal/debug"
	"repro/internal/replication"
	"repro/internal/wire"
)

// TestDecodeLogVersionGate: a capture of another format version is refused
// up front with an error naming both versions — a version-1 log's Switch
// checksums would otherwise surface as a divergence somewhere inside replay —
// and the debugger hands that error through untouched.
func TestDecodeLogVersionGate(t *testing.T) {
	prog, err := bytecode.AssembleString("method main 0 void\n  ret\nend")
	if err != nil {
		t.Fatal(err)
	}
	data, err := replication.EncodeLog(replication.LogHeader{Mode: ftvm.ModeSched, MinQuantum: 1, MaxQuantum: 2}, prog,
		[]wire.Record{&wire.Switch{TID: "0", NextTID: "0.1"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:6]) != "FTLOG\x02" {
		t.Fatalf("capture starts %q, want FTLOG\\x02", data[:6])
	}
	if _, err := replication.DecodeLog(data); err != nil {
		t.Fatalf("current version does not decode: %v", err)
	}

	old := append([]byte(nil), data...)
	old[5] = 1
	_, err = replication.DecodeLog(old)
	if !errors.Is(err, replication.ErrLogVersion) {
		t.Fatalf("version-1 capture decoded to %v, want ErrLogVersion", err)
	}
	for _, want := range []string{"file is version 1", "reads version 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	path := filepath.Join(t.TempDir(), "old.ftlog")
	if werr := os.WriteFile(path, old, 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, derr := debug.Open(path, debug.Options{}); derr == nil || derr.Error() != path+": "+err.Error() {
		t.Errorf("debug.Open = %v, want the decode error behind the path", derr)
	}

	for _, junk := range [][]byte{nil, []byte("FTLOG"), []byte("FTLOX\x02rest")} {
		if _, err := replication.DecodeLog(junk); !errors.Is(err, replication.ErrNotLog) {
			t.Errorf("DecodeLog(%q) = %v, want ErrNotLog", junk, err)
		}
	}
}
