// Package replication implements the paper's primary contribution: a
// primary-backup fault-tolerant VM built on the state machine approach.
//
// The primary runs the program under one of two replica-coordination
// techniques — replicated lock acquisition (log every monitor acquisition as
// a (t_id, t_asn, l_id, l_asn) record plus (l_id, t_id, t_asn) id maps,
// §4.2) or replicated thread scheduling (log every context switch as a
// (br_cnt, pc_off, mon_cnt, l_asn, t_id) record, §4.2) — and additionally
// logs the results of non-deterministic native methods (§4.1) and output
// commit points (§3.4). The cold backup stores the log; when the failure
// detector fires it re-executes the program from the initial state, gated by
// the log, recovers volatile environment state through side-effect handlers
// (§4.4), and continues live.
package replication

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Mode selects the multi-threading replica-coordination technique.
type Mode int

// Modes.
const (
	// ModeLock replicates the sequence of monitor acquisitions (works on
	// multiprocessors; requires race-free programs, R4A).
	ModeLock Mode = iota + 1
	// ModeSched replicates thread scheduling decisions (uniprocessor green
	// threads; tolerates data races, R4B).
	ModeSched
	// ModeLockInterval is ModeLock with DejaVu-style logical-interval
	// compression (§6): runs of acquisitions by one thread collapse into a
	// single record, shrinking the log by orders of magnitude.
	ModeLockInterval
)

func (m Mode) String() string {
	switch m {
	case ModeLock:
		return "lock"
	case ModeSched:
		return "sched"
	case ModeLockInterval:
		return "lockint"
	default:
		return "invalid"
	}
}

// ParseMode inverts String.
func ParseMode(name string) (Mode, error) {
	for m := ModeLock; m.valid(); m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want lock, sched or lockint)", name)
}

func (m Mode) valid() bool { return m >= ModeLock && m <= ModeLockInterval }

// Errors shared across the package.
var (
	ErrDivergence = errors.New("replica divergence detected")
	ErrBadResult  = errors.New("native result not representable on the wire")
)

// appendWire flattens native results into replica-independent wire values,
// appended to dst (the primary passes its scratch record's kept slice). Only
// ints, floats, null and string objects may cross (other references would be
// meaningless at the backup).
func appendWire(dst []wire.WireValue, h *heap.Heap, results []heap.Value) ([]wire.WireValue, error) {
	for _, v := range results {
		w := wire.WireValue{Kind: wire.WireNull}
		switch v.Kind {
		case heap.KindInt:
			w = wire.WireValue{Kind: wire.WireInt, I: v.I}
		case heap.KindFloat:
			w = wire.WireValue{Kind: wire.WireFloat, F: v.F()}
		case heap.KindRef:
			if v.R() == heap.NullRef {
				break
			}
			s, err := h.StringAt(v.R())
			if err != nil {
				return dst, fmt.Errorf("%w: %v", ErrBadResult, err)
			}
			w = wire.WireValue{Kind: wire.WireStr, S: s}
		default:
			return dst, fmt.Errorf("%w: invalid value kind", ErrBadResult)
		}
		dst = append(dst, w)
	}
	return dst, nil
}

// fromWire materialises logged results in the backup's heap.
func fromWire(h *heap.Heap, values []wire.WireValue) ([]heap.Value, error) {
	out := make([]heap.Value, len(values))
	for i, v := range values {
		switch v.Kind {
		case wire.WireInt:
			out[i] = heap.IntVal(v.I)
		case wire.WireFloat:
			out[i] = heap.FloatVal(v.F)
		case wire.WireNull:
			out[i] = heap.Null()
		case wire.WireStr:
			r, err := h.AllocString(v.S)
			if err != nil {
				return nil, err
			}
			out[i] = heap.RefVal(r)
		default:
			return nil, fmt.Errorf("%w: wire kind %d", ErrBadResult, v.Kind)
		}
	}
	return out, nil
}

func divergence(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDivergence, fmt.Sprintf(format, args...))
}

// snapshotProgress captures a thread's progress indicators for a scheduling
// record (§4.2): cumulative br_cnt, the method/pc offset of the last
// executed position, mon_cnt, and the acquire sequence number of the
// monitor it waits on, if any.
func snapshotProgress(t *vm.Thread) (brCnt uint64, methodIdx, pcOff int32, monCnt, lasn uint64) {
	brCnt = t.BrCnt
	monCnt = t.MonCnt
	methodIdx, pcOff = -1, -1
	if f := t.Top(); f != nil {
		methodIdx = f.Method
		pcOff = f.PC
	}
	if m := t.BlockedOn(); m != nil {
		lasn = m.LASN
	}
	return brCnt, methodIdx, pcOff, monCnt, lasn
}
