package sehandler

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/env"
	"repro/internal/heap"
	"repro/internal/native"
	"repro/internal/wire"
)

// file-handler ops encoded at the head of handler data.
const (
	fileOpOpen byte = iota + 1
	fileOpWrite
	fileOpRead
	fileOpSeek
	fileOpClose
)

// fdState is the backup's compressed view of one logged descriptor: the
// paper's receive method folds every write/read/seek on a descriptor into a
// single (name, offset) pair.
type fdState struct {
	name   string
	offset int64
	open   bool
	// realFD is the descriptor materialised at the backup (valid when
	// materialised is true).
	realFD       int64
	materialised bool
}

// FileHandler is the side-effect handler for the fs.* natives (§4.4's file
// I/O example). At the primary it logs, per operation, the descriptor and
// the post-operation offset. At the backup it compresses those records into
// per-descriptor offsets (receive), answers whether an uncertain final write
// completed by inspecting stable file contents (test), and re-opens
// descriptors at their recovered offsets (restore) — installing a descriptor
// translation map so that descriptor values logged by the dead primary keep
// working in the program's state.
type FileHandler struct {
	mu    sync.Mutex
	fds   map[int64]*fdState
	maxFD int64
	// boundProc is the backup process descriptors are materialised into
	// (bound via Bind before replay, or by Restore).
	boundProc *env.Process
}

var _ Handler = (*FileHandler)(nil)

// NewFileHandler returns a fresh file handler.
func NewFileHandler() *FileHandler {
	return &FileHandler{fds: make(map[int64]*fdState)}
}

// Name implements Handler.
func (h *FileHandler) Name() string { return native.HandlerFile }

// Register implements Handler: every fs native it manages must exist and be
// annotated as handler-managed.
func (h *FileHandler) Register(reg *native.Registry) error {
	for _, sig := range []string{"fs.open", "fs.write", "fs.read", "fs.seek", "fs.tell", "fs.close"} {
		def, ok := reg.Lookup(sig)
		if !ok {
			return fmt.Errorf("%s missing from registry", sig)
		}
		if def.Handler != native.HandlerFile {
			return fmt.Errorf("%s not managed by the file handler", sig)
		}
	}
	return nil
}

// Log implements Handler (primary side).
func (h *FileHandler) Log(ctx Ctx, def *native.Def, args, results []heap.Value) ([]byte, error) {
	var buf []byte
	put := func(op byte, fd int64, aux int64, name string) {
		var tmp [binary.MaxVarintLen64]byte
		buf = append(buf, op)
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], fd)]...)
		buf = append(buf, tmp[:binary.PutVarint(tmp[:], aux)]...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(name)))]...)
		buf = append(buf, name...)
	}
	fdOf := func(i int) int64 {
		if i < len(args) && args[i].Kind == heap.KindInt {
			return args[i].I
		}
		return -1
	}
	resInt := func() int64 {
		if len(results) == 1 && results[0].Kind == heap.KindInt {
			return results[0].I
		}
		return -1
	}
	switch def.Sig {
	case "fs.open":
		name, err := ctx.Heap.StringAt(args[0].R())
		if err != nil {
			return nil, fmt.Errorf("fs.open log: %w", err)
		}
		put(fileOpOpen, resInt(), 0, name)
	case "fs.write":
		fd := fdOf(0)
		off, err := ctx.Proc.Tell(fd)
		if err != nil {
			off = -1
		}
		put(fileOpWrite, fd, off, "")
	case "fs.read":
		fd := fdOf(0)
		off, err := ctx.Proc.Tell(fd)
		if err != nil {
			off = -1
		}
		put(fileOpRead, fd, off, "")
	case "fs.seek":
		put(fileOpSeek, fdOf(0), resInt(), "")
	case "fs.close":
		put(fileOpClose, fdOf(0), 0, "")
	case "fs.tell":
		// Pure volatile-state query: nothing to recover.
		return nil, nil
	default:
		return nil, fmt.Errorf("file handler asked to log %s", def.Sig)
	}
	return buf, nil
}

// Receive implements Handler (backup side): fold the logged operation into
// the per-descriptor state.
func (h *FileHandler) Receive(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	op := data[0]
	rest := data[1:]
	fd, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: file fd", ErrHandlerData)
	}
	rest = rest[n:]
	aux, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("%w: file aux", ErrHandlerData)
	}
	rest = rest[n:]
	nameLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < nameLen {
		return fmt.Errorf("%w: file name", ErrHandlerData)
	}
	name := string(rest[n : n+int(nameLen)])

	h.mu.Lock()
	defer h.mu.Unlock()
	if fd > h.maxFD {
		h.maxFD = fd
	}
	switch op {
	case fileOpOpen:
		if fd >= 0 {
			h.fds[fd] = &fdState{name: name, open: true}
		}
	case fileOpWrite, fileOpRead, fileOpSeek:
		st, ok := h.fds[fd]
		if !ok {
			return fmt.Errorf("%w: op %d on unknown fd %d", ErrHandlerData, op, fd)
		}
		// aux is the post-operation offset; successive operations compress
		// to the latest one (the paper's receive-side compression).
		if aux >= 0 {
			st.offset = aux
		}
	case fileOpClose:
		if st, ok := h.fds[fd]; ok {
			st.open = false
		}
	default:
		return fmt.Errorf("%w: unknown file op %d", ErrHandlerData, op)
	}
	return nil
}

// Test implements Handler: an uncertain final fs.write completed iff the
// stable file already contains the data at the recovered offset.
func (h *FileHandler) Test(ctx Ctx, def *native.Def, args []heap.Value, intent *wire.OutputIntent) (bool, error) {
	if def.Sig != "fs.write" {
		// Other fs outputs (none today) default to not-performed → re-run.
		return false, nil
	}
	if len(args) != 2 || args[0].Kind != heap.KindInt || args[1].Kind != heap.KindRef {
		return false, fmt.Errorf("fs.write test: malformed args")
	}
	data, err := ctx.Heap.StringAt(args[1].R())
	if err != nil {
		return false, fmt.Errorf("fs.write test: %w", err)
	}
	h.mu.Lock()
	st, ok := h.fds[args[0].I]
	h.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("fs.write test: unknown fd %d", args[0].I)
	}
	contents, err := ctx.Env.FileContents(st.name)
	if err != nil {
		return false, nil // file missing: write certainly did not complete
	}
	end := st.offset + int64(len(data))
	if int64(len(contents)) < end {
		return false, nil
	}
	return string(contents[st.offset:end]) == data, nil
}

// Restore implements Handler: reopen every still-open descriptor at its
// recovered offset and reserve the logged descriptor range so live opens
// cannot collide with logged descriptor values.
func (h *FileHandler) Restore(ctx Ctx) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.boundProc = ctx.Proc
	ctx.Proc.ReserveFDs(h.maxFD + 1)
	for fd, st := range h.fds {
		if !st.open || st.materialised {
			continue
		}
		real, err := ctx.Proc.OpenAt(st.name, st.offset, true)
		if err != nil {
			return fmt.Errorf("restore fd %d (%s): %w", fd, st.name, err)
		}
		st.realFD = real
		st.materialised = true
	}
	return nil
}

// State implements Handler: the FDTranslator natives consult.
func (h *FileHandler) State() any { return (*fileTranslator)(h) }

// fileTranslator adapts FileHandler to native.FDTranslator.
type fileTranslator FileHandler

var _ native.FDTranslator = (*fileTranslator)(nil)

// Real translates a logged descriptor, materialising it on first use (the
// lazy half of restore; needed when the uncertain final output is re-run
// before recovery formally completes).
func (t *fileTranslator) Real(logged int64) (int64, error) {
	h := (*FileHandler)(t)
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.fds[logged]
	if !ok {
		return logged, nil // not a logged descriptor: pass through
	}
	if st.materialised {
		return st.realFD, nil
	}
	if h.boundProc == nil {
		return logged, fmt.Errorf("file handler: descriptor %d used before a process was bound", logged)
	}
	real, err := h.boundProc.OpenAt(st.name, st.offset, true)
	if err != nil {
		return logged, fmt.Errorf("materialise fd %d (%s): %w", logged, st.name, err)
	}
	st.realFD = real
	st.materialised = true
	return real, nil
}

// Bind attaches the backup process used for materialisation before replay
// begins (Restore also binds it).
func (h *FileHandler) Bind(proc *env.Process) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.boundProc = proc
	if h.maxFD > 0 {
		proc.ReserveFDs(h.maxFD + 1)
	}
}
