package replication_test

import (
	"errors"
	"strings"
	"testing"

	ftvm "repro"
	"repro/internal/bytecode"
	"repro/internal/env"
	"repro/internal/programs"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/vm"
	"repro/internal/wire"
)

// spliceDiamond returns a copy of prog whose named method starts with a
// side-effect-free diamond: "iconst 0; <br> X; jmp J; X: jmp J; J:". Either
// arm executes two counted branches and leaves nothing on the stack, so jz
// and jnz versions of it reach J with identical (method, pc, br_cnt,
// mon_cnt) — only the positions in between differ.
func spliceDiamond(t *testing.T, prog *bytecode.Program, method string, br bytecode.Opcode) *bytecode.Program {
	t.Helper()
	out := *prog
	out.Methods = append([]*bytecode.Method(nil), prog.Methods...)
	for i, m := range out.Methods {
		if m.Name != method {
			continue
		}
		diamond := []bytecode.Instr{
			{Op: bytecode.OpIConst, A: 0},
			{Op: br, A: 3},
			{Op: bytecode.OpJmp, A: 4},
			{Op: bytecode.OpJmp, A: 4},
		}
		shift := int32(len(diamond))
		mm := *m
		mm.Code = append([]bytecode.Instr(nil), diamond...)
		for _, in := range m.Code {
			switch in.Op {
			case bytecode.OpJmp, bytecode.OpJz, bytecode.OpJnz:
				in.A += shift
			}
			mm.Code = append(mm.Code, in)
		}
		out.Methods[i] = &mm
		if err := bytecode.Verify(&out); err != nil {
			t.Fatalf("spliced program does not verify: %v", err)
		}
		return &out
	}
	t.Fatalf("no method %q", method)
	return nil
}

// TestChecksumCoversPathInsideInterval: folding the checksum per branch
// instead of per bytecode must still catch a replica whose control path
// differs only between two switch points. The log of mtrt (traceRay opening
// with a jz diamond) is replayed against the same program with that one
// branch flipped to jnz; every switch record's endpoint still matches, so
// only the checksum can tell.
func TestChecksumCoversPathInsideInterval(t *testing.T) {
	base, err := programs.Compile("mtrt", 1)
	if err != nil {
		t.Fatal(err)
	}
	logged := spliceDiamond(t, base, "traceRay", bytecode.OpJz)
	flipped := spliceDiamond(t, base, "traceRay", bytecode.OpJnz)
	records := runPairRecords(t, logged, ftvm.ModeSched, vm.DispatchThreaded)
	if n := len(switchIndexes(records)); n < 10 {
		t.Fatalf("only %d switch records; the log does not exercise scheduling replay", n)
	}

	for _, d := range []vm.Dispatch{vm.DispatchThreaded, vm.DispatchSwitch} {
		if err := recoverLog(t, records, logged, d); err != nil {
			t.Fatalf("%v: the logged program itself does not replay: %v", d, err)
		}
		err := recoverLog(t, records, flipped, d)
		if !errors.Is(err, replication.ErrDivergence) || !strings.Contains(err.Error(), "control-path checksum") {
			t.Fatalf("%v: flipped branch replayed to %v, want a control-path checksum divergence", d, err)
		}
	}
}

// switchIndexes returns the positions of the Switch records in a log.
func switchIndexes(records []wire.Record) []int {
	var at []int
	for i, r := range records {
		if _, ok := r.(*wire.Switch); ok {
			at = append(at, i)
		}
	}
	return at
}

// recoverLog cold-recovers a sched-mode log against prog.
func recoverLog(t *testing.T, records []wire.Record, prog *bytecode.Program, d vm.Dispatch) error {
	t.Helper()
	_, end := transport.Pipe(1)
	backup, err := replication.NewBackup(replication.BackupConfig{Mode: ftvm.ModeSched, Endpoint: end})
	if err != nil {
		t.Fatal(err)
	}
	if err := backup.LoadRecords(records); err != nil {
		t.Fatal(err)
	}
	_, _, err = backup.Recover(replication.RecoverConfig{
		Program: prog, Env: env.New(pairGoldenEnvSeed), MaxInstructions: 200_000_000, Dispatch: d,
	})
	return err
}

// TestSwitchChecksumAlwaysChecked: no Chk value switches the cross-check off.
// A record whose checksum was zeroed (what a cleared field looks like, and
// what used to mean "legacy log, skip") or has one bit flipped must replay to
// a divergence that names the descheduled thread.
func TestSwitchChecksumAlwaysChecked(t *testing.T) {
	prog, err := programs.Compile("mtrt", 1)
	if err != nil {
		t.Fatal(err)
	}
	records := runPairRecords(t, prog, ftvm.ModeSched, vm.DispatchThreaded)
	at := switchIndexes(records)
	if len(at) < 10 {
		t.Fatalf("only %d switch records", len(at))
	}
	if err := recoverLog(t, records, prog, vm.DispatchThreaded); err != nil {
		t.Fatalf("untouched log does not replay: %v", err)
	}
	for _, tc := range []struct {
		name   string
		record int
		chk    func(uint64) uint64
	}{
		{"first switch zeroed", at[0], func(uint64) uint64 { return 0 }},
		{"middle switch zeroed", at[len(at)/2], func(uint64) uint64 { return 0 }},
		{"last switch zeroed", at[len(at)-1], func(uint64) uint64 { return 0 }},
		{"low bit flipped", at[len(at)/2], func(c uint64) uint64 { return c ^ 1 }},
		{"high bit flipped", at[1], func(c uint64) uint64 { return c ^ 1<<63 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := *records[tc.record].(*wire.Switch)
			sw.Chk = tc.chk(sw.Chk)
			mutated := append([]wire.Record(nil), records...)
			mutated[tc.record] = &sw
			err := recoverLog(t, mutated, prog, vm.DispatchThreaded)
			if !errors.Is(err, replication.ErrDivergence) {
				t.Fatalf("replayed to %v, want ErrDivergence", err)
			}
			if want := "thread " + sw.TID + " control-path checksum"; !strings.Contains(err.Error(), want) {
				t.Fatalf("divergence %q does not say %q", err, want)
			}
		})
	}
}
