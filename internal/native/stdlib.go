package native

import (
	"fmt"
	"math"

	"repro/internal/heap"
)

// Handler names used by the standard library.
const (
	HandlerFile    = "file"
	HandlerChannel = "channel"
	HandlerDevices = "devices"
)

// FDTranslator translates file descriptors that a program obtained from a
// now-failed primary into descriptors live in the recovering backup's
// process. The file side-effect handler installs an implementation as
// HandlerState(HandlerFile); during normal primary execution no handler
// state exists and descriptors pass through untranslated. Translation may
// materialise the descriptor lazily (open the file and seek to the offset
// recovered from the log) — the paper's restore path (§4.4).
type FDTranslator interface {
	Real(logged int64) (int64, error)
}

func realFD(ctx Ctx, fd int64) (int64, error) {
	if st := ctx.HandlerState(HandlerFile); st != nil {
		if tr, ok := st.(FDTranslator); ok {
			return tr.Real(fd)
		}
	}
	return fd, nil
}

func argInt(args []heap.Value, i int) (int64, error) {
	if i >= len(args) || args[i].Kind != heap.KindInt {
		return 0, fmt.Errorf("%w: arg %d must be int", ErrBadArgs, i)
	}
	return args[i].I, nil
}

func argFloat(args []heap.Value, i int) (float64, error) {
	if i >= len(args) || args[i].Kind != heap.KindFloat {
		return 0, fmt.Errorf("%w: arg %d must be float", ErrBadArgs, i)
	}
	return args[i].F(), nil
}

func argRef(args []heap.Value, i int) (heap.Ref, error) {
	if i >= len(args) || args[i].Kind != heap.KindRef {
		return 0, fmt.Errorf("%w: arg %d must be ref", ErrBadArgs, i)
	}
	return args[i].R(), nil
}

func argStr(ctx Ctx, args []heap.Value, i int) (string, error) {
	r, err := argRef(args, i)
	if err != nil {
		return "", err
	}
	return ctx.Heap().StringAt(r)
}

func strResult(ctx Ctx, s string) ([]heap.Value, error) {
	r, err := ctx.Heap().AllocString(s)
	if err != nil {
		return nil, err
	}
	return []heap.Value{heap.RefVal(r)}, nil
}

func intResult(v int64) []heap.Value { return []heap.Value{heap.IntVal(v)} }

// StdLib returns a registry populated with the FTVM standard-library natives
// — the analog of the JRE's native methods, already categorised as in §4.1
// (the non-deterministic subset is what the interception hash table holds).
func StdLib() *Registry {
	r := NewRegistry()

	// Console output: exactly-once via per-thread sequence numbers, so
	// replaying it during recovery is idempotent.
	r.MustRegister(&Def{
		Sig: "io.print", Arity: 1, Output: true, ReinvokeOnReplay: true, UsesOutputSeq: true,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			s, err := argStr(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			ctx.Environment().Console().Write(ctx.ThreadID(), ctx.NextOutputSeq(), s)
			return nil, nil
		},
	})

	// Message channel: sends are testable outputs managed by the channel
	// side-effect handler; receives are non-deterministic inputs.
	r.MustRegister(&Def{
		Sig: "chan.send", Arity: 1, Output: true, Handler: HandlerChannel, UsesOutputSeq: true,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			s, err := argStr(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			ctx.Environment().Messages().Send(ctx.ThreadID(), ctx.NextOutputSeq(), s)
			return nil, nil
		},
	})
	r.MustRegister(&Def{
		Sig: "chan.recv", Arity: 0, Returns: 1, NonDeterministic: true,
		Fn: func(ctx Ctx, _ []heap.Value) ([]heap.Value, error) {
			msg, ok := ctx.Environment().Messages().Recv()
			if !ok {
				return []heap.Value{heap.Null()}, nil
			}
			return strResult(ctx, msg)
		},
	})
	r.MustRegister(&Def{
		Sig: "chan.len", Arity: 0, Returns: 1, NonDeterministic: true,
		Fn: func(ctx Ctx, _ []heap.Value) ([]heap.Value, error) {
			return intResult(int64(ctx.Environment().Messages().Len())), nil
		},
	})

	// Clock and entropy: pure non-deterministic inputs.
	r.MustRegister(&Def{
		Sig: "sys.clock", Arity: 0, Returns: 1, NonDeterministic: true, Handler: HandlerDevices,
		Fn: func(ctx Ctx, _ []heap.Value) ([]heap.Value, error) {
			return intResult(ctx.Environment().Clock().Now()), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "sys.rand", Arity: 0, Returns: 1, NonDeterministic: true, Handler: HandlerDevices,
		Fn: func(ctx Ctx, _ []heap.Value) ([]heap.Value, error) {
			return intResult(ctx.Environment().Entropy().Next()), nil
		},
	})

	// Deterministic system helpers.
	r.MustRegister(&Def{
		Sig: "sys.gc", Arity: 0,
		Fn: func(ctx Ctx, _ []heap.Value) ([]heap.Value, error) {
			ctx.RunGC()
			return nil, nil
		},
	})
	r.MustRegister(&Def{
		Sig: "sys.threadid", Arity: 0, Returns: 1,
		Fn: func(ctx Ctx, _ []heap.Value) ([]heap.Value, error) {
			return strResult(ctx, ctx.ThreadID())
		},
	})
	// sys.locktouch acquires and releases a monitor from inside a native
	// method — control transfers back into the VM on monitor operations
	// even when they originate in native code, which is what makes the
	// mon_cnt bookkeeping of §4.2 possible.
	r.MustRegister(&Def{
		Sig: "sys.locktouch", Arity: 1, AcquiresLocks: true,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			ref, err := argRef(args, 0)
			if err != nil {
				return nil, err
			}
			if err := ctx.MonitorEnter(ref); err != nil {
				return nil, err
			}
			return nil, ctx.MonitorExit(ref)
		},
	})

	// File I/O: managed by the file side-effect handler. These natives are
	// NOT re-invoked during recovery: file contents are stable environment
	// state that survived the primary, so the handler instead feeds logged
	// results to the program, compresses write records into per-descriptor
	// offsets (receive), and re-opens descriptors at the recovered offsets
	// when they are next used (restore).
	r.MustRegister(&Def{
		Sig: "fs.open", Arity: 2, Returns: 1,
		NonDeterministic: true, Handler: HandlerFile,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			name, err := argStr(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			create, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			fd, err := ctx.Process().Open(name, create != 0)
			if err != nil {
				return intResult(-1), nil
			}
			return intResult(fd), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.write", Arity: 2, Returns: 1,
		Output: true, NonDeterministic: true, Handler: HandlerFile,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			fd, err := argInt(args, 0)
			if err != nil {
				return nil, err
			}
			data, err := argStr(ctx, args, 1)
			if err != nil {
				return nil, err
			}
			rfd, err := realFD(ctx, fd)
			if err != nil {
				return intResult(-1), nil
			}
			n, err := ctx.Process().Write(rfd, []byte(data))
			if err != nil {
				return intResult(-1), nil
			}
			return intResult(n), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.read", Arity: 2, Returns: 1,
		NonDeterministic: true, Handler: HandlerFile,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			fd, err := argInt(args, 0)
			if err != nil {
				return nil, err
			}
			n, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			rfd, err := realFD(ctx, fd)
			if err != nil {
				return []heap.Value{heap.Null()}, nil
			}
			b, err := ctx.Process().Read(rfd, n)
			if err != nil {
				return []heap.Value{heap.Null()}, nil
			}
			return strResult(ctx, string(b))
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.seek", Arity: 3, Returns: 1,
		NonDeterministic: true, Handler: HandlerFile,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			fd, err := argInt(args, 0)
			if err != nil {
				return nil, err
			}
			off, err := argInt(args, 1)
			if err != nil {
				return nil, err
			}
			whence, err := argInt(args, 2)
			if err != nil {
				return nil, err
			}
			rfd, err := realFD(ctx, fd)
			if err != nil {
				return intResult(-1), nil
			}
			pos, err := ctx.Process().SeekTo(rfd, off, int(whence))
			if err != nil {
				return intResult(-1), nil
			}
			return intResult(pos), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.tell", Arity: 1, Returns: 1,
		NonDeterministic: true, Handler: HandlerFile,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			fd, err := argInt(args, 0)
			if err != nil {
				return nil, err
			}
			rfd, err := realFD(ctx, fd)
			if err != nil {
				return intResult(-1), nil
			}
			pos, err := ctx.Process().Tell(rfd)
			if err != nil {
				return intResult(-1), nil
			}
			return intResult(pos), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.close", Arity: 1, NonDeterministic: true, Handler: HandlerFile,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			fd, err := argInt(args, 0)
			if err != nil {
				return nil, err
			}
			rfd, err := realFD(ctx, fd)
			if err != nil {
				return nil, nil
			}
			// Closing an already-absent descriptor is harmless (replay).
			_ = ctx.Process().Close(rfd)
			return nil, nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.size", Arity: 1, Returns: 1, NonDeterministic: true,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			name, err := argStr(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			n, err := ctx.Environment().FileSize(name)
			if err != nil {
				return intResult(-1), nil
			}
			return intResult(n), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.exists", Arity: 1, Returns: 1, NonDeterministic: true,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			name, err := argStr(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			return intResult(boolInt(ctx.Environment().FileExists(name))), nil
		},
	})
	r.MustRegister(&Def{
		Sig: "fs.delete", Arity: 1, Returns: 1,
		Output: true, NonDeterministic: true, ReinvokeOnReplay: true,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			name, err := argStr(ctx, args, 0)
			if err != nil {
				return nil, err
			}
			if err := ctx.Environment().DeleteFile(name); err != nil {
				return intResult(0), nil // idempotent replay
			}
			return intResult(1), nil
		},
	})

	// Deterministic math natives: never intercepted, so they return their
	// result in args[0] (the contract on Def.Fn) and a call allocates nothing.
	mathUnary := func(sig string, f func(float64) float64) {
		r.MustRegister(&Def{
			Sig: sig, Arity: 1, Returns: 1,
			Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
				x, err := argFloat(args, 0)
				if err != nil {
					return nil, err
				}
				args[0] = heap.FloatVal(f(x))
				return args[:1], nil
			},
		})
	}
	mathUnary("math.sqrt", math.Sqrt)
	mathUnary("math.sin", math.Sin)
	mathUnary("math.cos", math.Cos)
	mathUnary("math.exp", math.Exp)
	mathUnary("math.log", math.Log)
	mathUnary("math.floor", math.Floor)
	mathUnary("math.abs", math.Abs)
	r.MustRegister(&Def{
		Sig: "math.pow", Arity: 2, Returns: 1,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			x, err := argFloat(args, 0)
			if err != nil {
				return nil, err
			}
			y, err := argFloat(args, 1)
			if err != nil {
				return nil, err
			}
			args[0] = heap.FloatVal(math.Pow(x, y))
			return args[:1], nil
		},
	})

	// Soft/weak reference natives (§4.3).
	r.MustRegister(&Def{
		Sig: "ref.soft", Arity: 1, Returns: 1,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			obj, err := argRef(args, 0)
			if err != nil {
				return nil, err
			}
			holder, err := ctx.Heap().AllocRecord(-1, 0, false)
			if err != nil {
				return nil, err
			}
			ctx.Heap().RegisterSoftRef(holder, obj)
			return []heap.Value{heap.RefVal(holder)}, nil
		},
	})
	r.MustRegister(&Def{
		Sig: "ref.softget", Arity: 1, Returns: 1,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			holder, err := argRef(args, 0)
			if err != nil {
				return nil, err
			}
			ref, ok := ctx.Heap().SoftReferent(holder)
			if !ok {
				return []heap.Value{heap.Null()}, nil
			}
			return []heap.Value{heap.RefVal(ref)}, nil
		},
	})
	r.MustRegister(&Def{
		Sig: "ref.weak", Arity: 1, Returns: 1,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			obj, err := argRef(args, 0)
			if err != nil {
				return nil, err
			}
			holder, err := ctx.Heap().AllocRecord(-1, 0, false)
			if err != nil {
				return nil, err
			}
			ctx.Heap().RegisterWeakRef(holder, obj)
			return []heap.Value{heap.RefVal(holder)}, nil
		},
	})
	r.MustRegister(&Def{
		Sig: "ref.weakget", Arity: 1, Returns: 1,
		Fn: func(ctx Ctx, args []heap.Value) ([]heap.Value, error) {
			holder, err := argRef(args, 0)
			if err != nil {
				return nil, err
			}
			ref, ok := ctx.Heap().WeakReferent(holder)
			if !ok {
				return []heap.Value{heap.Null()}, nil
			}
			return []heap.Value{heap.RefVal(ref)}, nil
		},
	})

	return r
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
