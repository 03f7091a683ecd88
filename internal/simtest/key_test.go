package simtest

import (
	"strings"
	"testing"
	"time"

	ftvm "repro"
	"repro/internal/fleet"
	"repro/internal/fuzzgen"
	"repro/internal/transport"
)

// fullCombos sets every field of every kind to a non-zero value, so a field
// the table forgot — or renders and parses asymmetrically — shows up as a
// round-trip difference.
var fullCombos = []Scenario{
	&Combo{
		ProgCombo: ProgCombo{ProgSeed: 7, Size: fuzzgen.SizeMedium, Mode: ftvm.ModeSched,
			FaultKind: transport.FaultDropSend, FaultAt: 2, NetSeed: -4, ReorderNum: 1, ReorderDen: 8},
		KillAtSend: 12, KillDeliver: true,
	},
	&ViewCombo{
		ProgCombo: ProgCombo{ProgSeed: 42, Size: fuzzgen.SizeSmall, Mode: ftvm.ModeSched,
			FaultKind: transport.FaultCorruptRecv, FaultAt: 1, NetSeed: 9, ReorderNum: 1, ReorderDen: 4},
		Kill1AtSend: 7, Kill1Deliver: true, Kill2AtSend: 2, Kill2Deliver: true, InjectStale: true,
	},
	&FleetCombo{
		Seed: 3, Nodes: 4, Shards: 8, Clients: 100, Ops: 3,
		Kill1Node: 2, Kill1At: 250 * time.Millisecond, Kill2Node: 3, Kill2At: 700 * time.Millisecond,
		Fault: fleet.FaultAckDrop, FaultEvery: 13, InjectStale: true,
	},
	&ConsensusCombo{
		ProgCombo: ProgCombo{ProgSeed: 9, Size: fuzzgen.SizeLarge, Mode: ftvm.ModeLockInterval,
			FaultKind: transport.FaultCorruptRecv, FaultAt: 2, NetSeed: 5, ReorderNum: 1, ReorderDen: 8},
		KillLeader: true, KillAtSend: 7, KillDeliver: true, PartAt: 3, PartLen: 4, InjectStale: true, ESeed: 11,
	},
}

// TestKeyRoundTrip pins the replay-string format for all four kinds: every
// field of a scenario survives Key -> ParseKey, the key is classified as its
// own kind, and so does every scenario the default sweep enumerates — so the
// single line a sweep prints on failure is always a complete repro.
func TestKeyRoundTrip(t *testing.T) {
	check := func(t *testing.T, sc Scenario) {
		t.Helper()
		key := Key(sc)
		back, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if back.Kind() != sc.Kind() {
			t.Fatalf("ParseKey(%q) is a %s key, want %s", key, back.Kind(), sc.Kind())
		}
		if Key(back) != key {
			t.Fatalf("re-render changed the key: %q -> %q", key, Key(back))
		}
		same := false
		switch want := sc.(type) {
		case *Combo:
			same = *back.(*Combo) == *want
		case *ViewCombo:
			same = *back.(*ViewCombo) == *want
		case *FleetCombo:
			same = *back.(*FleetCombo) == *want
		case *ConsensusCombo:
			same = *back.(*ConsensusCombo) == *want
		}
		if !same {
			t.Fatalf("round trip changed the combo:\n in  %+v\n out %+v\n key %s", sc, back, key)
		}
	}
	for _, sc := range fullCombos {
		t.Run(sc.Kind().String(), func(t *testing.T) {
			check(t, sc)
			cfg := SweepConfig{Kind: sc.Kind(), Seeds: []uint64{3, 9}, Size: fuzzgen.SizeMedium, NetSeeds: []int64{-4}}
			for _, enumerated := range cfg.Scenarios() {
				check(t, enumerated)
			}
		})
	}
}

// TestParseKeyRejects is the one table of keys that must not parse, each with
// the part of the error that names the problem: the failure modes substring
// sniffing let through (unknown fields, fields from the wrong kind, ambiguous
// keys, malformed parts), malformed values, and the two that used to replay
// a different schedule and print "ok" — a non-boolean boolean and a repeated
// field.
func TestParseKeyRejects(t *testing.T) {
	cases := []struct {
		name, key, wantErr string
	}{
		{"empty", "", "empty replay key"},
		{"not key=value", "prog=1,size", "is not key=value"},
		{"bare name", "clients", "is not key=value"},
		{"unknown field", "prog=1,size=small,mode=lock,bogus=3", `"bogus" is not a pair-combo field (accepts prog size mode kill`},
		{"typoed discriminator", "prog=1,size=small,mode=lock,kil1=4", `"kil1" is not a pair-combo field`},
		{"view field without discriminator", "prog=1,size=small,mode=lock,d1=0", `"d1" is not a pair-combo field`},
		{"pair field in fleet key", "seed=3,clients=10,net=4", `"net" is not a fleet-combo field`},
		{"unknown fleet field", "clients=10,zebra=1", `"zebra" is not a fleet-combo field`},
		{"ambiguous view+fleet", "kill1=4,clients=10", "ambiguous"},
		{"ambiguous view+consensus", "prog=1,kill1=4,who=leader", "ambiguous"},
		{"inject on pair", "prog=1,size=small,mode=lock,inject=1", `"inject" is not a pair-combo field`},
		{"unknown mode", "mode=warp", `pair combo field "mode=warp": unknown mode`},
		{"unknown size", "prog=1,size=huge", `"size=huge"`},
		{"unknown fault kind", "fault=gremlin@2", `"fault=gremlin@2": unknown fault kind`},
		{"unknown dispatch", "prog=1,dispatch=switch", `"dispatch" is not a pair-combo field`},
		{"not an int", "clients=x", `fleet combo field "clients=x"`},
		{"fault missing @", "prog=1,fault=none", `"fault=none" is not two values joined by "@"`},
		{"reorder missing /", "prog=1,reorder=8", `"reorder=8" is not two values joined by "/"`},
		{"part missing +", "who=leader,part=3", `"part=3" is not two values joined by "+"`},
		{"fleet kill missing @", "clients=10,ka=3", `"ka=3" is not two values joined by "@"`},
		{"fleet fault missing /every", "clients=10,fault=ackdrop", `"fault=ackdrop" is not two values joined by "/"`},
		{"neither leader nor follower", "who=candidate", `"who=candidate": "candidate" is neither leader nor follower`},
		{"boolean banana (pair)", "prog=1,deliver=banana", `pair combo field "deliver=banana": "banana" is not a boolean`},
		{"boolean 2 (view)", "kill1=3,inject=2", `view combo field "inject=2": "2" is not a boolean`},
		{"boolean x (view)", "kill1=3,d1=x", `view combo field "d1=x": "x" is not a boolean`},
		{"boolean yes (fleet)", "clients=10,inject=yes", `fleet combo field "inject=yes"`},
		{"boolean empty (consensus)", "who=leader,deliver=", `consensus combo field "deliver="`},
		{"repeated field", "prog=1,kill=3,kill=5", `repeats field "kill"`},
		{"repeated discriminator", "kill1=3,kill1=4", `repeats field "kill1"`},
		{"repeated fleet field", "clients=10,seed=1,seed=2", `repeats field "seed"`},
		{"pair key without a mode", "prog=1,kill=3", `pair replay key has no "mode" field`},
		{"view key without a mode", "kill1=0", `view replay key has no "mode" field`},
		{"consensus key without a mode", "who=leader,kill=5", `consensus replay key has no "mode" field`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseKey(tc.key)
			if err == nil {
				t.Fatalf("ParseKey(%q) accepted, want error containing %q", tc.key, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseKey(%q) error %q does not contain %q", tc.key, err, tc.wantErr)
			}
		})
	}

	// Both spellings of each boolean stay accepted.
	for _, key := range []string{"prog=1,mode=lock,deliver=true", "prog=1,mode=lock,deliver=false", "kill1=2,mode=lock,d1=1,d2=0,inject=true"} {
		if _, err := ParseKey(key); err != nil {
			t.Errorf("ParseKey(%q): %v", key, err)
		}
	}

	// A discriminator name inside a VALUE must not decide the kind — the
	// historical Contains(key, "kill1=") sniffing mis-filed such keys.
	key := `seed=3,nodes=4,shards=8,clients=10,ops=3,ka=1@250,kb=0@0,fault=kill1/13,inject=0`
	if sc, err := ParseKey(key); err != nil || sc.Kind() != KindFleet {
		t.Fatalf("ParseKey(value containing kill1) = %v, %v; want a fleet key", sc, err)
	}

	// A field type the value grammar has no case for is an error naming the
	// type, not a panic.
	if err := parseValue(new(float64), "1"); err == nil || !strings.Contains(err.Error(), "float64") {
		t.Errorf("parseValue(*float64) = %v, want an error naming the type", err)
	}
}

// FuzzParseKey: a replay key is typed by hand, so ParseKey must answer any
// string with a scenario or an error, never a panic; and every key it accepts
// must render to a canonical key that parses and renders back to itself —
// the one line a sweep prints must replay what was accepted.
func FuzzParseKey(f *testing.F) {
	for _, sc := range fullCombos {
		f.Add(Key(sc))
	}
	for _, key := range []string{"", "kill1=0", "prog=1,mode=lock,deliver=true", "who=leader,mode=sched,kill=5", "clients=10,ka=1@250,fault=ackdrop/3"} {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		sc, err := ParseKey(key)
		if err != nil {
			return
		}
		canon := Key(sc)
		back, err := ParseKey(canon)
		if err != nil {
			t.Fatalf("ParseKey(%q) accepted, but its key %q does not parse: %v", key, canon, err)
		}
		if again := Key(back); again != canon {
			t.Fatalf("ParseKey(%q) renders %q, which renders back as %q", key, canon, again)
		}
	})
}

// TestFuzzReplayKeyParses pins the bridge from the live fuzzer: the
// `ftvm-sim -replay` string that ftvm-fuzz prints for a failing seed must be
// accepted by ParseKey as a pair key and name the same generated program.
func TestFuzzReplayKeyParses(t *testing.T) {
	f := &fuzzgen.Failure{Seed: 8241, Size: fuzzgen.SizeMedium, Stage: fuzzgen.StageFailover}
	key := fuzzgen.SimReplayKey(f)
	sc, err := ParseKey(key)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", key, err)
	}
	cb, ok := sc.(*Combo)
	if !ok {
		t.Fatalf("ParseKey(%q) is a %s key, want pair", key, sc.Kind())
	}
	if cb.ProgSeed != f.Seed || cb.Size != f.Size {
		t.Fatalf("combo %q lost the program identity (seed %d size %s)", key, f.Seed, f.Size)
	}
	if cb.KillAtSend == 0 && cb.FaultKind == 0 {
		t.Fatalf("combo %q carries no failure schedule", key)
	}
}
