// Package native implements the FTVM native-method interface — the analog of
// JNI (§3.2, §4.1). Native methods are Go functions registered by signature
// and annotated with the properties replica coordination needs to know:
// whether the method is a non-deterministic command (its results must be
// logged by the primary and adopted by the backup), whether it is an output
// command (the primary must reach an output commit point first), whether it
// must be re-invoked during recovery to reproduce volatile environment
// state, and which side-effect handler manages it.
package native

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/env"
	"repro/internal/heap"
)

// Ctx is the view of the VM a native method executes against. Natives run
// outside the bytecode state machine (they are "beyond the purview of the
// JVM") but may call back in through this interface; restriction R3 requires
// such callbacks to be deterministic.
type Ctx interface {
	// Heap returns the VM's object heap.
	Heap() *heap.Heap
	// Process returns the VM's volatile environment attachment.
	Process() *env.Process
	// Environment returns the shared environment.
	Environment() *env.Env
	// ThreadID returns the calling thread's virtual id (stable across
	// replicas).
	ThreadID() string
	// NextOutputSeq returns the calling thread's next output sequence
	// number (deterministic; used for exactly-once device writes).
	NextOutputSeq() uint64
	// MonitorEnter acquires the monitor of r on behalf of the calling
	// thread from inside a native method (must not contend; used to model
	// natives that lock, exercising the mon_cnt replay path of §4.2).
	MonitorEnter(r heap.Ref) error
	// MonitorExit releases the monitor of r.
	MonitorExit(r heap.Ref) error
	// RunGC synchronously collects garbage (the System.gc analog).
	RunGC()
	// HandlerState returns mutable state installed by the named
	// side-effect handler (nil when the handler is not active, e.g. during
	// normal primary execution).
	HandlerState(name string) any
}

// Func is the implementation of a native method. A returned error is a fatal
// run-time-environment failure (R0) and aborts the VM; recoverable
// conditions (file not found, empty channel) are reported to the program
// through status return values instead, mirroring how the paper logs
// "return values and the exceptions raised" as one unit.
type Func func(ctx Ctx, args []heap.Value) ([]heap.Value, error)

// Def describes one native method.
type Def struct {
	// Sig is the method signature ("class.name" form) used as the registry
	// key — the paper's class name + method name + argument types.
	Sig string
	// Arity is the number of argument values.
	Arity int
	// Returns is the number of result values (0 or 1).
	Returns int
	// NonDeterministic marks commands whose results are not a function of
	// the read set: the primary logs results, the backup adopts them.
	NonDeterministic bool
	// Output marks output commands: the primary must flush the log and wait
	// for the backup's acknowledgement before performing them.
	Output bool
	// ReinvokeOnReplay marks methods the backup must actually invoke during
	// recovery to reproduce volatile environment state (discarding the
	// generated results in favour of the logged ones when NonDeterministic).
	ReinvokeOnReplay bool
	// Handler names the side-effect handler managing this method ("" if
	// none).
	Handler string
	// UsesOutputSeq marks output natives that consume exactly one
	// per-thread output sequence number per invocation (via
	// Ctx.NextOutputSeq). When the backup skips such an invocation during
	// recovery it must advance the sequence number symmetrically.
	UsesOutputSeq bool
	// AcquiresLocks marks natives that may acquire monitors through
	// Ctx.MonitorEnter (§4.2: lock operations transfer control back into
	// the VM even from native code). Such natives must perform no side
	// effects before their first acquisition: on contention (or a replay
	// gate) the VM blocks the thread and re-executes the whole native once
	// the monitor becomes available. They must not also be intercepted.
	AcquiresLocks bool
	// Fn is the implementation. args alias the caller's operand stack for
	// the duration of the call: Fn must not retain them. A never-intercepted
	// native (none of NonDeterministic, Output, Handler) may write its
	// results into args and return a prefix of it; an intercepted one must
	// leave them intact, because the primary hands them to the managing
	// side-effect handler's Log after Fn returns.
	Fn Func
}

// Errors returned by the registry.
var (
	ErrDuplicateNative = errors.New("duplicate native method")
	ErrUnknownNative   = errors.New("unknown native method")
	ErrBadArgs         = errors.New("native method argument mismatch")
)

// Registry is the table of native methods. The subset with NonDeterministic
// set corresponds to the paper's hash table of non-deterministic native
// signatures (§4.1).
type Registry struct {
	defs map[string]*Def
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]*Def)}
}

// Register adds a native method definition.
func (r *Registry) Register(d *Def) error {
	if d.Sig == "" || d.Fn == nil {
		return fmt.Errorf("register native: empty signature or nil fn")
	}
	if _, dup := r.defs[d.Sig]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateNative, d.Sig)
	}
	r.defs[d.Sig] = d
	return nil
}

// MustRegister registers d and panics on a duplicate (program-startup use).
func (r *Registry) MustRegister(d *Def) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Lookup resolves a signature.
func (r *Registry) Lookup(sig string) (*Def, bool) {
	d, ok := r.defs[sig]
	return d, ok
}

// Sigs returns all registered signatures, sorted.
func (r *Registry) Sigs() []string {
	out := make([]string, 0, len(r.defs))
	for s := range r.defs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// NonDeterministicSigs returns the signatures of non-deterministic natives,
// sorted — the contents of the paper's interception hash table.
func (r *Registry) NonDeterministicSigs() []string {
	var out []string
	for s, d := range r.defs {
		if d.NonDeterministic {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Intercepted reports whether sig requires interception by the replication
// machinery (non-deterministic, output, or handler-managed).
func (r *Registry) Intercepted(sig string) bool {
	d, ok := r.defs[sig]
	if !ok {
		return false
	}
	return d.NonDeterministic || d.Output || d.Handler != ""
}
