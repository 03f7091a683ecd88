package vm

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/heap"
	"repro/internal/native"
)

// nativeCtx adapts the VM to the native.Ctx interface for one invocation.
// Each VM owns one (VM.nctx), re-aimed at the calling thread per call, so a
// native call allocates no context: natives never nest (none calls back into
// the interpreter), and none keeps its Ctx after returning.
type nativeCtx struct {
	vm *VM
	t  *Thread
}

var _ native.Ctx = (*nativeCtx)(nil)

func (c *nativeCtx) Heap() *heap.Heap             { return c.vm.hp }
func (c *nativeCtx) Process() *env.Process        { return c.vm.proc }
func (c *nativeCtx) Environment() *env.Env        { return c.vm.environ }
func (c *nativeCtx) ThreadID() string             { return c.t.VTID }
func (c *nativeCtx) HandlerState(name string) any { return c.vm.handlerState[name] }

func (c *nativeCtx) NextOutputSeq() uint64 {
	c.t.OutSeq++
	return c.t.OutSeq
}

func (c *nativeCtx) MonitorEnter(r heap.Ref) error { return c.vm.nativeMonEnter(c.t, r) }
func (c *nativeCtx) MonitorExit(r heap.Ref) error  { return c.vm.monExit(c.t, r) }

func (c *nativeCtx) RunGC() {
	// GC from a native is safe: sys.gc takes no reference arguments, so no
	// unrooted values are live in the native frame.
	_ = c.vm.runGC(c.t)
}

// DirectNative invokes def for thread t without replica coordination. It is
// the execution primitive coordinators build on.
func (vm *VM) DirectNative(t *Thread, def *native.Def, args []heap.Value) ([]heap.Value, error) {
	if len(args) != def.Arity {
		return nil, fmt.Errorf("%w: %s: %d args, want %d", native.ErrBadArgs, def.Sig, len(args), def.Arity)
	}
	ctx := &vm.nctx
	ctx.vm, ctx.t = vm, t
	results, err := def.Fn(ctx, args)
	if err != nil {
		return nil, fmt.Errorf("native %s: %w", def.Sig, err)
	}
	return results, nil
}

// ConsumeOutputSeq advances t's output sequence number without invoking a
// native — used by backup coordinators when they skip an already-performed
// output whose native consumes a sequence number (def.UsesOutputSeq).
func (vm *VM) ConsumeOutputSeq(t *Thread) uint64 {
	t.OutSeq++
	return t.OutSeq
}
