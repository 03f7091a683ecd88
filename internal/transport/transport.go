// Package transport carries the replication log between primary and backup:
// a message-oriented, ordered, reliable duplex channel. Two implementations
// are provided — an in-process pipe (the default for tests, examples and the
// benchmark harness) and TCP (the deployment the paper used between two
// machines). A closed or timed-out endpoint is how the backup's failure
// detector observes the primary's fail-stop crash.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/simtest/clock"
)

// Errors surfaced by endpoints.
var (
	ErrClosed  = errors.New("transport closed")
	ErrTimeout = errors.New("transport receive timeout")
)

// Endpoint is one end of a duplex message channel.
type Endpoint interface {
	// Send transmits one message (never blocks indefinitely on a live
	// peer; returns ErrClosed after Close of either end). Send must not
	// retain msg after it returns: callers reuse the backing array for the
	// next frame.
	Send(msg []byte) error
	// Recv blocks for the next message. timeout <= 0 means no timeout.
	// Returns ErrClosed when the peer closed, ErrTimeout on expiry. The
	// result is the caller's: no endpoint keeps or reuses it, so what is
	// decoded from it (a wire.Frame's Payload) may alias it and be kept.
	Recv(timeout time.Duration) ([]byte, error)
	// Close tears the endpoint down; pending and future Recv calls on the
	// peer return ErrClosed.
	Close() error
}

// pipeShared is the state behind both ends of an in-process pipe: two
// bounded queues (one per direction) plus the parked senders/receivers
// waiting on them. All waits go through clock.WaitSlot on the pipe's
// injected clock, so a pipe created with PipeClock is fully visible to a
// virtual clock — its Recv timeouts fire in simulated time and its blocked
// endpoints count as parked actors instead of stalling the simulation. (The
// earlier implementation waited on bare channels with a real timer: exactly
// the kind of wall-clock wait the clock lint cannot see, because the timer
// came from the sanctioned clock.Real escape hatch.)
type pipeShared struct {
	clk clock.Clock
	mu  sync.Mutex
	dir [2]pipeDir // dir[i] carries traffic sent by end i
	// closed[i] reports end i closed. Either closure stops new traffic in
	// both directions; already-buffered messages remain drainable.
	closed [2]bool
	// free holds wait slots to park on again. A slot comes back only after a
	// Signal woke it, which leaves nothing latched; one that timed out may
	// yet catch a late Signal, so it is dropped, and a reused slot never
	// wakes its next parker spuriously.
	free []clock.WaitSlot
}

// slot returns a wait slot to park on, a reused one when there is one. The
// caller holds s.mu.
func (s *pipeShared) slot() clock.WaitSlot {
	if n := len(s.free); n > 0 {
		ws := s.free[n-1]
		s.free = s.free[:n-1]
		return ws
	}
	return s.clk.NewWaitSlot()
}

// pipeDir is one direction's queue and its waiters.
type pipeDir struct {
	capacity int
	queue    [][]byte
	sendWait []clock.WaitSlot // senders parked on a full queue
	recvWait []clock.WaitSlot // receivers parked on an empty queue
}

// wake signals and forgets every parked waiter in list; woken parties
// re-evaluate their condition and re-park if needed. Each registration is
// signalled once: wake empties the list it signals.
func wake(list *[]clock.WaitSlot) {
	for _, s := range *list {
		s.Signal()
	}
	*list = (*list)[:0]
}

// pipeEnd is one side of an in-process pipe.
type pipeEnd struct {
	s   *pipeShared
	idx int // 0 or 1; sends into s.dir[idx], receives from s.dir[1-idx]
}

// PipeCapacity is the per-direction capacity, in messages, of the in-process
// links the system builds by default: a replicated run's log channel and a
// consensus cluster's mesh.
const PipeCapacity = 1024

// Pipe returns the two ends of an in-process duplex channel with capacity
// cap messages per direction (a small buffer decouples the primary's log
// sender from the backup's consumer, like a socket buffer). Waits run on
// the wall clock; simulation code uses PipeClock.
func Pipe(capacity int) (Endpoint, Endpoint) {
	return PipeClock(capacity, nil)
}

// PipeClock is Pipe with an injected clock: under a virtual clock every
// blocking Send/Recv parks clock-visibly and every Recv timeout fires in
// simulated time, which is what keeps harness runs that use the in-process
// pipe (ftvm.RunReplicated and friends) deterministic under simulation.
func PipeClock(capacity int, clk clock.Clock) (Endpoint, Endpoint) {
	if capacity < 1 {
		capacity = 64
	}
	s := &pipeShared{clk: clock.Or(clk)}
	s.dir[0].capacity = capacity
	s.dir[1].capacity = capacity
	return &pipeEnd{s: s, idx: 0}, &pipeEnd{s: s, idx: 1}
}

// Send implements Endpoint. It blocks (clock-visibly) while the direction's
// buffer is full, and fails once either end has closed — a buffered queue
// must not keep accepting traffic for a torn-down channel.
func (p *pipeEnd) Send(msg []byte) error {
	s := p.s
	s.mu.Lock()
	d := &s.dir[p.idx]
	for {
		if s.closed[0] || s.closed[1] {
			s.mu.Unlock()
			return ErrClosed
		}
		if len(d.queue) < d.capacity {
			break
		}
		slot := s.slot()
		d.sendWait = append(d.sendWait, slot)
		s.mu.Unlock()
		slot.Park(0)
		s.mu.Lock()
		s.free = append(s.free, slot) // an untimed Park ends only by a Signal
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	d.queue = append(d.queue, cp)
	wake(&d.recvWait)
	s.mu.Unlock()
	return nil
}

// Recv implements Endpoint. Buffered messages are drained even after either
// end closes (closing stops new traffic; it must not discard messages that
// were already delivered into the buffer); only an empty queue reports
// ErrClosed.
func (p *pipeEnd) Recv(timeout time.Duration) ([]byte, error) {
	s := p.s
	s.mu.Lock()
	d := &s.dir[1-p.idx]
	for {
		if len(d.queue) > 0 {
			msg := d.queue[0]
			d.queue[0] = nil
			if len(d.queue) == 1 {
				d.queue = d.queue[:0] // drained: the next message takes this cell
			} else {
				d.queue = d.queue[1:]
			}
			wake(&d.sendWait)
			s.mu.Unlock()
			return msg, nil
		}
		if s.closed[0] || s.closed[1] {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		slot := s.slot()
		d.recvWait = append(d.recvWait, slot)
		s.mu.Unlock()
		timedOut := slot.Park(timeout)
		s.mu.Lock()
		if timedOut {
			// Dropped, and unregistered if it still is (a stale entry would
			// only accumulate, never misbehave, but keep the list exact).
			if i := slices.Index(d.recvWait, slot); i >= 0 {
				d.recvWait = slices.Delete(d.recvWait, i, i+1)
			}
		} else {
			s.free = append(s.free, slot) // a wake signalled it and took it off the list
		}
		if timedOut && len(d.queue) == 0 {
			if s.closed[0] || s.closed[1] {
				s.mu.Unlock()
				return nil, ErrClosed
			}
			s.mu.Unlock()
			return nil, ErrTimeout
		}
	}
}

// Close implements Endpoint. Idempotent; wakes every parked sender and
// receiver on both directions so nothing stays parked on a dead channel.
func (p *pipeEnd) Close() error {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed[p.idx] {
		return nil
	}
	s.closed[p.idx] = true
	for i := range s.dir {
		wake(&s.dir[i].sendWait)
		wake(&s.dir[i].recvWait)
	}
	return nil
}

// tcpEndpoint speaks length-prefixed messages over a net.Conn. Receives are
// resumable: a timeout mid-frame (after a partial read of the length prefix
// or the payload) parks the partial state and the next Recv continues where
// the previous one stopped, so short timeouts never desynchronize the stream.
type tcpEndpoint struct {
	conn   net.Conn
	sendMu sync.Mutex
	lenBuf [4]byte

	// Receive state, guarded by recvMu: a buffered reader plus the
	// partially-assembled in-flight frame.
	recvMu  sync.Mutex
	br      *bufio.Reader
	rLenBuf [4]byte
	hdrGot  int    // bytes of the length prefix read so far
	payload []byte // allocated once the prefix completes
	payGot  int    // bytes of the payload read so far

	closed bool
	mu     sync.Mutex
}

// NewTCP wraps an established connection.
func NewTCP(conn net.Conn) Endpoint {
	return &tcpEndpoint{conn: conn, br: bufio.NewReader(conn)}
}

// DialTCP connects to a listening backup.
func DialTCP(addr string) (Endpoint, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return NewTCP(conn), nil
}

// ListenTCP accepts exactly one peer on addr and returns the endpoint plus
// the bound address (useful with ":0").
func ListenTCP(addr string) (Endpoint, string, error) {
	return ListenTCPAnnounce(addr, nil)
}

// ListenTCPAnnounce is ListenTCP, but reports the bound address through
// ready before blocking in Accept — needed when listening on ":0" and the
// dialer must learn the chosen port.
func ListenTCPAnnounce(addr string, ready func(bound string)) (Endpoint, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("listen %s: %w", addr, err)
	}
	bound := l.Addr().String()
	if ready != nil {
		ready(bound)
	}
	conn, err := l.Accept()
	closeErr := l.Close()
	if err != nil {
		return nil, bound, fmt.Errorf("accept on %s: %w", bound, err)
	}
	if closeErr != nil {
		_ = conn.Close()
		return nil, bound, fmt.Errorf("close listener: %w", closeErr)
	}
	return NewTCP(conn), bound, nil
}

// Send implements Endpoint.
func (t *tcpEndpoint) Send(msg []byte) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if t.isClosed() {
		return ErrClosed
	}
	binary.LittleEndian.PutUint32(t.lenBuf[:], uint32(len(msg)))
	if _, err := t.conn.Write(t.lenBuf[:]); err != nil {
		return t.mapErr(err)
	}
	if _, err := t.conn.Write(msg); err != nil {
		return t.mapErr(err)
	}
	return nil
}

// Recv implements Endpoint.
func (t *tcpEndpoint) Recv(timeout time.Duration) ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if t.isClosed() {
		return nil, ErrClosed
	}
	// Socket deadlines are inherently wall-clock: the kernel, not the
	// process, enforces them. Explicit clock.Real opt-in.
	var deadline time.Time
	if timeout > 0 {
		deadline = clock.Real.Now().Add(timeout)
	}
	if err := t.conn.SetReadDeadline(deadline); err != nil {
		return nil, t.mapErr(err)
	}
	// Resume (or start) the length prefix. Progress is kept across calls: a
	// timeout after a partial read must not discard the bytes already
	// consumed, or the next Recv would interpret payload bytes as a length.
	for t.hdrGot < len(t.rLenBuf) {
		n, err := t.br.Read(t.rLenBuf[t.hdrGot:])
		t.hdrGot += n
		if err != nil {
			return nil, t.mapErr(err)
		}
	}
	if t.payload == nil {
		n := binary.LittleEndian.Uint32(t.rLenBuf[:])
		if n > 1<<28 {
			return nil, fmt.Errorf("implausible message length %d", n)
		}
		t.payload = make([]byte, n)
		t.payGot = 0
	}
	for t.payGot < len(t.payload) {
		n, err := t.br.Read(t.payload[t.payGot:])
		t.payGot += n
		if err != nil {
			return nil, t.mapErr(err)
		}
	}
	msg := t.payload
	t.payload, t.payGot, t.hdrGot = nil, 0, 0
	return msg, nil
}

// Close implements Endpoint.
func (t *tcpEndpoint) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return t.conn.Close()
}

func (t *tcpEndpoint) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

func (t *tcpEndpoint) mapErr(err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ErrTimeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	if t.isClosed() {
		return ErrClosed
	}
	return err
}
