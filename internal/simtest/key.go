package simtest

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	ftvm "repro"
	"repro/internal/fuzzgen"
	"repro/internal/transport"
)

// field is one name=value part of a replay key, bound to the scenario whose
// members it reads and writes. A kind's fields(), in key order, are its whole
// grammar: Key renders them, ParseKey parses into them, and the kind of a key
// is read off the same tables (marksKind), so no second list of field names
// exists anywhere.
type field struct {
	name string
	// vals point into the scenario: one value, or two joined by sep
	// (fault=kind@at, reorder=num/den, part=at+len, ka=node@ms).
	vals []any
	sep  string
	// marksKind: the field appears in exactly one kind's keys, so its
	// presence decides the kind. Pair keys carry no such field.
	marksKind bool
	// optional fields render only when non-zero, so keys written before the
	// field existed render (and replay) unchanged.
	optional bool
}

func one(name string, p any) field         { return field{name: name, vals: []any{p}} }
func two(name, sep string, p, q any) field { return field{name: name, vals: []any{p, q}, sep: sep} }
func mark(f field) field                   { f.marksKind = true; return f }
func optional(f field) field               { f.optional = true; return f }
func (f field) zero() bool                 { return reflect.ValueOf(f.vals[0]).Elem().IsZero() }
func fieldNames(fs []field) (names []string) {
	for _, f := range fs {
		names = append(names, f.name)
	}
	return names
}

// millis is a time.Duration a key spells in whole milliseconds; victim is a
// bool a key spells leader/follower.
type (
	millis time.Duration
	victim bool
)

// renderValue and parseValue are the value grammar of all four key formats:
// one case per type a field may point at.
func renderValue(p any) string {
	switch v := p.(type) {
	case *int:
		return strconv.Itoa(*v)
	case *int64:
		return strconv.FormatInt(*v, 10)
	case *uint64:
		return strconv.FormatUint(*v, 10)
	case *string:
		return *v
	case *bool:
		if *v {
			return "1"
		}
		return "0"
	case *victim:
		if *v {
			return "leader"
		}
		return "follower"
	case *millis:
		return strconv.FormatInt(int64(time.Duration(*v)/time.Millisecond), 10)
	case *fuzzgen.Size:
		return v.String()
	case *ftvm.Mode:
		return v.String()
	case *transport.FaultKind:
		return v.String()
	}
	panic(fmt.Sprintf("simtest: no key rendering for %T", p))
}

func parseValue(p any, s string) (err error) {
	switch v := p.(type) {
	case *int:
		*v, err = strconv.Atoi(s)
	case *int64:
		*v, err = strconv.ParseInt(s, 0, 64)
	case *uint64:
		*v, err = strconv.ParseUint(s, 0, 64)
	case *string:
		*v = s
	case *bool:
		// Strict: "banana" or "2" must not silently mean false and replay a
		// different schedule than the one the key's author had in mind.
		switch s {
		case "1", "true":
			*v = true
		case "0", "false":
			*v = false
		default:
			err = fmt.Errorf("%q is not a boolean (0, 1, true, false)", s)
		}
	case *victim:
		switch s {
		case "leader":
			*v = true
		case "follower":
			*v = false
		default:
			err = fmt.Errorf("%q is neither leader nor follower", s)
		}
	case *millis:
		var ms int
		ms, err = strconv.Atoi(s)
		*v = millis(time.Duration(ms) * time.Millisecond)
	case *fuzzgen.Size:
		*v, err = fuzzgen.SizeByName(s)
	case *ftvm.Mode:
		*v, err = modeByName(s)
	case *transport.FaultKind:
		*v, err = faultKindByName(s)
	default:
		err = fmt.Errorf("no key parsing for a field of type %T", p)
	}
	return err
}

// faultKindByName inverts transport.FaultKind.String.
func faultKindByName(name string) (transport.FaultKind, error) {
	for k := transport.FaultNone; ; k++ {
		s := k.String()
		if s == "invalid" {
			return 0, fmt.Errorf("unknown fault kind %q", name)
		}
		if s == name {
			return k, nil
		}
	}
}

// modeByName inverts replication.Mode.String.
func modeByName(name string) (ftvm.Mode, error) {
	for _, m := range allModes {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (lock, sched, lockint)", name)
}

// Key renders the scenario as its canonical replay string. It round-trips
// through ParseKey, so any failing schedule replays from a single line:
//
//	go run ./cmd/ftvm-sim -replay "prog=7,size=small,mode=sched,kill=12,deliver=1,fault=none@0,net=3,reorder=1/8"
func Key(sc Scenario) string {
	var parts []string
	for _, f := range sc.fields() {
		if f.optional && f.zero() {
			continue
		}
		s := f.name + "=" + renderValue(f.vals[0])
		if len(f.vals) == 2 {
			s += f.sep + renderValue(f.vals[1])
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// ParseKey parses a replay string into the runnable scenario it denotes,
// deciding the kind from the key's field structure (never from substrings: a
// VALUE that happens to contain "kill1" decides nothing). The rules are
// strict, because a typo that parses replays a different schedule and prints
// "ok": every comma-separated part must be name=value; at most one
// kind-marking field (kill1 / clients / who) may appear; every field must
// belong to the decided kind and appear once; every value must parse. Each
// error names the offending field.
func ParseKey(key string) (Scenario, error) {
	if strings.TrimSpace(key) == "" {
		return nil, errors.New("empty replay key")
	}
	type part struct{ raw, name, val string }
	var parts []part
	for _, raw := range strings.Split(key, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(raw), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("replay key field %q is not key=value", raw)
		}
		parts = append(parts, part{raw, name, val})
	}

	kind := KindPair
	var marks []string
	for k := range kinds {
		for _, f := range kinds[k].new().fields() {
			if f.marksKind && slices.ContainsFunc(parts, func(p part) bool { return p.name == f.name }) {
				kind = Kind(k)
				marks = append(marks, f.name)
			}
		}
	}
	if len(marks) > 1 {
		return nil, fmt.Errorf("replay key is ambiguous: fields %s name different harnesses", strings.Join(marks, " and "))
	}

	sc := kinds[kind].new()
	fs := sc.fields()
	seen := map[string]bool{}
	for _, p := range parts {
		i := slices.IndexFunc(fs, func(f field) bool { return f.name == p.name })
		if i < 0 {
			return nil, fmt.Errorf("replay key field %q is not a %s-combo field (accepts %s)",
				p.name, kind, strings.Join(fieldNames(fs), " "))
		}
		if seen[p.name] {
			return nil, fmt.Errorf("replay key repeats field %q", p.name)
		}
		seen[p.name] = true
		f := fs[i]
		vals := []string{p.val}
		if len(f.vals) == 2 {
			a, b, ok := strings.Cut(p.val, f.sep)
			if !ok {
				return nil, fmt.Errorf("%s combo field %q is not two values joined by %q", kind, p.raw, f.sep)
			}
			vals = []string{a, b}
		}
		for i, v := range vals {
			if err := parseValue(f.vals[i], v); err != nil {
				return nil, fmt.Errorf("%s combo field %q: %w", kind, p.raw, err)
			}
		}
	}
	return sc, nil
}
