package replication

import (
	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/sehandler"
	"repro/internal/vm"
	"repro/internal/wire"
)

// nativeReplay is what the three replay coordinators have in common, and
// each embeds it: the VM's default coordinator — scheduling by the replay's
// one policy, a fresh lock-id counter, no-op hooks — plus the native hooks
// (NativeReady, InvokeNative, OnHalt) and the admit loop every mode's Poll
// runs; a mode overrides only what its records decide. Beneath the hooks sit
// the indexed log, the promotion tail, and the backup-side native-method
// machinery (§4.1) — it feeds logged results to the program, re-invokes
// natives that must reproduce volatile output, and gives the uncertain final
// output exactly-once semantics via the handler's test method (§4.4).
// Side-effect handler state was already accumulated by the serve loop (the
// paper's receive method runs when log state arrives) and volatile
// environment state was rebuilt by restore before replay began.
type nativeReplay struct {
	vm.DefaultCoordinator
	handlers *sehandler.Set
	a        *analysis
	// logs caches each thread's record of a by Thread.Slot (append-only
	// within a VM), so a replayed event finds its queue without hashing the
	// thread's name; threadLog fills it.
	logs []*threadLog

	// tail, when set, is the promoted replica's own outgoing primary: every
	// event past the recovered log — lock acquisitions, scheduling decisions,
	// native results, and the uncertain final output, which must be
	// re-committed against the new configuration — is routed through it so
	// the new backup's log stays a faithful continuation of the old one (the
	// state-transfer tail of a view change).
	tail *Primary

	// Recovery counters for the harness/tests.
	FedResults  uint64
	Reinvoked   uint64
	SkippedOuts uint64
	TestedOuts  uint64
	LiveInvokes uint64
	// GatedWakeups counts the gated threads admit let run.
	GatedWakeups uint64
}

func newNativeReplay(a *analysis, handlers *sehandler.Set) *nativeReplay {
	return &nativeReplay{handlers: handlers, a: a}
}

// seededOr is policy or, when it is nil, the default seeded policy on seed.
// Each role has its own seed, so a backup interleaves differently from its
// primary unless told otherwise.
func seededOr(policy vm.SchedPolicy, seed int64) vm.SchedPolicy {
	if policy == nil {
		return vm.NewSeededPolicy(seed, 1024, 8192)
	}
	return policy
}

// threadLog returns t's record of the log, found by t's slot. A hit is
// confirmed by the thread's name, so a slot that was cached for another
// thread is looked up again.
func (nr *nativeReplay) threadLog(t *vm.Thread) *threadLog {
	if int(t.Slot) < len(nr.logs) {
		if tl := nr.logs[t.Slot]; tl != nil && tl.tid == t.VTID {
			return tl
		}
	} else {
		nr.logs = append(nr.logs, make([]*threadLog, int(t.Slot)+1-len(nr.logs))...)
	}
	tl := nr.a.thread(t.VTID)
	nr.logs[t.Slot] = tl
	return tl
}

func (nr *nativeReplay) ctx(v *vm.VM) sehandler.Ctx {
	return sehandler.Ctx{Heap: v.Heap(), Env: v.Environment(), Proc: v.Process()}
}

// NativeReady implements vm.Coordinator for every replay coordinator: gate
// intercepted natives whose records have not arrived yet (warm backup).
func (nr *nativeReplay) NativeReady(_ *vm.VM, t *vm.Thread, _ *native.Def) bool { return nr.ready(t) }

// InvokeNative implements vm.Coordinator.
func (nr *nativeReplay) InvokeNative(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	return nr.invoke(v, t, def, args)
}

// OnHalt implements vm.Coordinator.
func (nr *nativeReplay) OnHalt(v *vm.VM, runErr error) error {
	if nr.tail != nil {
		return nr.tail.OnHalt(v, runErr)
	}
	return nil
}

// admit is every replay's Poll: it ungates each gated thread whose turn has
// arrived and reports whether it ungated any. A thread gated before an
// intercepted native call waits for its record (ready); one gated on a
// monitor waits for turn, the mode's acquisition rule. A nil turn gates no
// monitor: under replicated scheduling the acquisition order reproduces
// itself (R4B).
func (nr *nativeReplay) admit(v *vm.VM, turn func(*vm.Thread, *vm.Monitor) (bool, error)) (bool, error) {
	progress := false
	for _, t := range v.Threads() {
		if t.State() != vm.StateGated {
			continue
		}
		ok, err := false, error(nil)
		if m := t.BlockedOn(); m == nil {
			ok = nr.ready(t)
		} else if turn != nil {
			ok, err = turn(t, m)
		}
		if err != nil {
			return false, err
		}
		if ok {
			v.Ungate(t)
			nr.GatedWakeups++
			progress = true
		}
	}
	return progress, nil
}

// drained reports whether every logged native event has been consumed and
// no more can arrive.
func (nr *nativeReplay) drained() bool { return nr.a.nativePending == 0 && !nr.a.open }

// consume pops the head of tl's native queue.
func (nr *nativeReplay) consume(tl *threadLog) {
	tl.native = tl.native[1:]
	nr.a.nativePending--
}

// ready reports whether t's next intercepted native invocation can proceed
// now. While the log is still open (warm backup), an empty queue means
// "wait for the primary's record", and the globally-newest record cannot be
// consumed if it is an output intent — its certainty is not yet known.
func (nr *nativeReplay) ready(t *vm.Thread) bool {
	q := nr.threadLog(t).native
	if len(q) == 0 {
		return !nr.a.open
	}
	if nr.a.open && len(q) == 1 {
		if intent, ok := q[0].(*wire.OutputIntent); ok && wire.Record(intent) == nr.a.last {
			return false
		}
	}
	return true
}

// invoke handles one intercepted native invocation during recovery or live
// post-recovery execution.
func (nr *nativeReplay) invoke(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	tl := nr.threadLog(t)
	q := tl.native
	if len(q) == 0 {
		// This thread has run past the primary's logged execution: live.
		nr.LiveInvokes++
		if nr.tail != nil {
			// Promoted replica: live natives take the full primary path —
			// output commit against the new backup, result logging for
			// non-deterministic commands.
			return nr.tail.InvokeNative(v, t, def, args)
		}
		return v.DirectNative(t, def, args)
	}
	switch rec := q[0].(type) {
	case *wire.OutputIntent:
		if rec.Sig != def.Sig || rec.NatSeq != t.NatSeq {
			return nil, divergence("thread %s native #%d is %s, log has %s #%d",
				t.VTID, t.NatSeq, def.Sig, rec.Sig, rec.NatSeq)
		}
		nr.consume(tl)
		if rec == nr.a.uncertain {
			return nr.handleUncertain(v, t, def, args, rec)
		}
		return nr.handleCertainOutput(v, t, tl, def, args)
	case *wire.NativeResult:
		if rec.Sig != def.Sig || rec.NatSeq != t.NatSeq {
			return nil, divergence("thread %s native #%d is %s, log has %s #%d",
				t.VTID, t.NatSeq, def.Sig, rec.Sig, rec.NatSeq)
		}
		nr.consume(tl)
		return nr.useLogged(v, t, def, args, rec)
	default:
		return nil, divergence("thread %s: unexpected %s record in native queue", t.VTID, q[0].Type())
	}
}

// handleCertainOutput processes an output the primary certainly performed
// (records exist after it in the log); tl is t's record.
func (nr *nativeReplay) handleCertainOutput(v *vm.VM, t *vm.Thread, tl *threadLog, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	if def.ReinvokeOnReplay {
		// Idempotent output (e.g. sequence-numbered console writes): replay
		// it; the environment deduplicates.
		nr.Reinvoked++
		if _, err := v.DirectNative(t, def, args); err != nil {
			return nil, err
		}
	} else {
		nr.SkippedOuts++
		if def.UsesOutputSeq {
			v.ConsumeOutputSeq(t)
		}
	}
	if def.NonDeterministic {
		// The result record follows the intent in this thread's queue (the
		// VM is single-threaded between commit and result logging).
		res, ok := headResult(tl.native)
		if !ok || res.Sig != def.Sig || res.NatSeq != t.NatSeq {
			return nil, divergence("thread %s: output %s missing its result record", t.VTID, def.Sig)
		}
		nr.consume(tl)
		return nr.useLogged(v, t, def, args, res)
	}
	return nil, nil
}

func headResult(q []wire.Record) (*wire.NativeResult, bool) {
	if len(q) == 0 {
		return nil, false
	}
	res, ok := q[0].(*wire.NativeResult)
	return res, ok
}

// handleUncertain gives the final, uncertain output exactly-once semantics:
// testable outputs are checked against the environment; idempotent ones are
// re-run (§3.4, R5).
func (nr *nativeReplay) handleUncertain(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value, intent *wire.OutputIntent) ([]heap.Value, error) {
	if nr.tail != nil {
		// The old log's trailing intent was deliberately not shipped in the
		// snapshot: re-commit it here, against the *new* configuration, before
		// deciding whether to (re)perform the output. The intent lands in the
		// same log position it held in the old epoch, so a second recovery
		// sees an identical prefix.
		if err := nr.tail.CommitOutput(t, def); err != nil {
			return nil, err
		}
	}
	performed := false
	if h := nr.handlers.ForDef(def); h != nil {
		nr.TestedOuts++
		var err error
		performed, err = h.Test(nr.ctx(v), def, args, intent)
		if err != nil {
			return nil, err
		}
	}
	if performed && def.Returns == 0 {
		nr.SkippedOuts++
		if def.UsesOutputSeq {
			v.ConsumeOutputSeq(t)
		}
		return nil, nil
	}
	// Not performed, or a value-returning output whose (idempotent, R5)
	// re-execution regenerates the result the primary never logged.
	nr.Reinvoked++
	results, err := v.DirectNative(t, def, args)
	if err != nil {
		return nil, err
	}
	if def.NonDeterministic && nr.tail != nil {
		// The old primary died before logging this result; the new backup
		// gets it from us.
		if err := nr.tail.LogNativeResult(v, t, def, args, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// useLogged adopts the primary's logged results, re-invoking first when the
// native must reproduce volatile output (discarding what it generates, §4.1).
func (nr *nativeReplay) useLogged(v *vm.VM, t *vm.Thread, def *native.Def, args []heap.Value, rec *wire.NativeResult) ([]heap.Value, error) {
	if def.ReinvokeOnReplay {
		nr.Reinvoked++
		if _, err := v.DirectNative(t, def, args); err != nil {
			return nil, err
		}
	}
	nr.FedResults++
	results, err := fromWire(v.Heap(), rec.Results)
	if err != nil {
		return nil, err
	}
	if len(results) != def.Returns {
		return nil, divergence("%s: logged %d results, native returns %d", def.Sig, len(results), def.Returns)
	}
	return results, nil
}
