// Package env simulates the operating-system environment underneath the
// replicated VM: a file store whose contents are stable (they survive a
// primary failure), per-process volatile state (descriptor tables and
// offsets), a console and a message channel with sequence-numbered
// exactly-once output, a virtual clock, and an entropy source.
//
// The environment is shared between the primary and backup VMs — it is "the
// outside world" of §3.4. Volatile state (a Process) is lost when the VM
// holding it is killed; stable state persists. Sequence-numbered devices are
// the paper's "extra layer" that turns message sends into testable outputs.
package env

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by environment operations.
var (
	ErrBadFD        = errors.New("bad file descriptor")
	ErrNoSuchFile   = errors.New("no such file")
	ErrBadWhence    = errors.New("bad seek whence")
	ErrNegativeSeek = errors.New("negative seek offset")
)

// Whence values for Process.Seek.
const (
	SeekAbs = 0 // absolute (idempotent output)
	SeekRel = 1 // relative to current offset (testable via Tell)
	SeekEnd = 2 // relative to end of file
)

// storedFile is stable environment state.
type storedFile struct {
	data []byte
}

// Env is a simulated operating system instance.
type Env struct {
	mu      sync.Mutex
	files   map[string]*storedFile
	console *SeqDevice
	msgs    *SeqChannel
	clock   *Clock
	entropy *Entropy
}

// New creates an environment whose clock jitter and entropy derive from seed.
func New(seed int64) *Env {
	return &Env{
		files:   make(map[string]*storedFile),
		console: NewSeqDevice(),
		msgs:    NewSeqChannel(),
		clock:   NewClock(seed),
		entropy: NewEntropy(seed ^ 0x1e3779b97f4a7c15),
	}
}

// Seed returns the seed the environment was created with.
func (e *Env) Seed() int64 { return e.clock.seed }

// Console returns the sequence-numbered console device.
func (e *Env) Console() *SeqDevice { return e.console }

// Messages returns the sequence-numbered message channel.
func (e *Env) Messages() *SeqChannel { return e.msgs }

// Clock returns the virtual clock.
func (e *Env) Clock() *Clock { return e.clock }

// Entropy returns the entropy source.
func (e *Env) Entropy() *Entropy { return e.entropy }

// FileSize returns the size of a stable file, or an error if absent.
func (e *Env) FileSize(name string) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	return int64(len(f.data)), nil
}

// FileExists reports whether a stable file exists.
func (e *Env) FileExists(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.files[name]
	return ok
}

// FileContents returns a copy of a stable file's bytes.
func (e *Env) FileContents(name string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// PutFile creates or replaces a stable file (test setup helper).
func (e *Env) PutFile(name string, data []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := make([]byte, len(data))
	copy(d, data)
	e.files[name] = &storedFile{data: d}
}

// DeleteFile removes a stable file.
func (e *Env) DeleteFile(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchFile, name)
	}
	delete(e.files, name)
	return nil
}

// ListFiles returns the sorted stable file names.
func (e *Env) ListFiles() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.files))
	for n := range e.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Attach creates a new process: a fresh (volatile) descriptor table bound to
// this environment. Killing the owning VM discards the Process, modelling
// the loss of the primary's volatile OS state.
func (e *Env) Attach() *Process {
	return &Process{env: e, fds: make(map[int64]*openFile), nextFD: 3}
}

type openFile struct {
	name   string
	offset int64
}

// Process is the volatile per-VM view of the environment.
type Process struct {
	env    *Env
	fds    map[int64]*openFile
	nextFD int64
}

// Open opens (or with create, creates) a stable file and returns a
// descriptor. Descriptor values are volatile environment state — the
// canonical example of a native return value that reflects volatile state
// and needs a side-effect handler (§4.1).
func (p *Process) Open(name string, create bool) (int64, error) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	if _, ok := p.env.files[name]; !ok {
		if !create {
			return -1, fmt.Errorf("%w: %q", ErrNoSuchFile, name)
		}
		p.env.files[name] = &storedFile{}
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &openFile{name: name}
	return fd, nil
}

// OpenAt opens name and positions the descriptor at offset (used by the file
// side-effect handler's restore during recovery).
func (p *Process) OpenAt(name string, offset int64, create bool) (int64, error) {
	fd, err := p.Open(name, create)
	if err != nil {
		return -1, err
	}
	p.fds[fd].offset = offset
	return fd, nil
}

func (p *Process) file(fd int64) (*openFile, *storedFile, error) {
	of, ok := p.fds[fd]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	sf, ok := p.env.files[of.name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchFile, of.name)
	}
	return of, sf, nil
}

// Write appends b at the descriptor's offset (extending the file as needed)
// and advances the offset. Returns bytes written.
func (p *Process) Write(fd int64, b []byte) (int64, error) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	of, sf, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	end := of.offset + int64(len(b))
	if int64(len(sf.data)) < end {
		grown := make([]byte, end)
		copy(grown, sf.data)
		sf.data = grown
	}
	copy(sf.data[of.offset:end], b)
	of.offset = end
	return int64(len(b)), nil
}

// Read reads up to n bytes from the descriptor's offset.
func (p *Process) Read(fd int64, n int64) ([]byte, error) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	of, sf, err := p.file(fd)
	if err != nil {
		return nil, err
	}
	if of.offset >= int64(len(sf.data)) || n <= 0 {
		return nil, nil
	}
	end := of.offset + n
	if end > int64(len(sf.data)) {
		end = int64(len(sf.data))
	}
	out := make([]byte, end-of.offset)
	copy(out, sf.data[of.offset:end])
	of.offset = end
	return out, nil
}

// SeekTo repositions the descriptor and returns the new offset.
func (p *Process) SeekTo(fd, off int64, whence int) (int64, error) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	of, sf, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	var target int64
	switch whence {
	case SeekAbs:
		target = off
	case SeekRel:
		target = of.offset + off
	case SeekEnd:
		target = int64(len(sf.data)) + off
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadWhence, whence)
	}
	if target < 0 {
		return 0, ErrNegativeSeek
	}
	of.offset = target
	return target, nil
}

// Tell returns the descriptor's current offset (makes relative seeks
// testable, §3.4).
func (p *Process) Tell(fd int64) (int64, error) {
	of, ok := p.fds[fd]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return of.offset, nil
}

// Name returns the file name behind a descriptor.
func (p *Process) Name(fd int64) (string, error) {
	of, ok := p.fds[fd]
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return of.name, nil
}

// Close releases a descriptor.
func (p *Process) Close(fd int64) error {
	if _, ok := p.fds[fd]; !ok {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	delete(p.fds, fd)
	return nil
}

// ReserveFDs raises the next-descriptor counter to at least n, so that
// descriptors allocated from now on never collide with a recovering
// program's logged descriptor values.
func (p *Process) ReserveFDs(n int64) {
	if p.nextFD < n {
		p.nextFD = n
	}
}

// OpenFDs returns the open descriptors with name and offset, sorted by fd
// (used by the file side-effect handler's log method).
func (p *Process) OpenFDs() []FDInfo {
	out := make([]FDInfo, 0, len(p.fds))
	for fd, of := range p.fds {
		out = append(out, FDInfo{FD: fd, Name: of.name, Offset: of.offset})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FD < out[j].FD })
	return out
}

// FDInfo describes one open descriptor.
type FDInfo struct {
	FD     int64
	Name   string
	Offset int64
}
