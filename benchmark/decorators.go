package main

import (
	"sync/atomic"
	"time"

	"repro/internal/replication"
	"repro/internal/transport"
)

// tracedBackend records one span per Ship at the boundary between the
// primary and its coordination backend. Ship runs on the VM goroutine only,
// and so does the pair link's decorator, which reads cur to parent its spans.
type tracedBackend struct {
	replication.CoordinationBackend
	tr        *tracer
	parent    int // span of the VM run the ships belong to
	iteration int
	cur       int // span of the Ship in flight, or parent
	ships     uint64
}

func (b *tracedBackend) Ship(payload []byte, commit bool) error {
	name := "backend.ship"
	if commit {
		name = "backend.commit_ship"
	}
	b.cur = b.tr.begin(name, b.parent, b.iteration)
	err := b.CoordinationBackend.Ship(payload, commit)
	b.tr.end(b.cur)
	b.cur = b.parent
	b.ships++
	return err
}

// tracedEndpoint records one span per Send of one end of a link, and per
// Recv where waitRecv is set. The consensus replicas send from several
// goroutines, so the counters, shared by all ends of a run, are atomic; their
// receivers park for the whole run, which says nothing, so waitRecv is for
// the pair link only.
type tracedEndpoint struct {
	transport.Endpoint
	tr        *tracer
	parent    func() int
	iteration int
	waitRecv  bool
	msgs      *atomic.Uint64
	bytes     *atomic.Uint64
}

func (e *tracedEndpoint) Send(msg []byte) error {
	id := e.tr.begin("transport.send", e.parent(), e.iteration)
	err := e.Endpoint.Send(msg)
	e.tr.end(id)
	e.msgs.Add(1)
	e.bytes.Add(uint64(len(msg)))
	return err
}

func (e *tracedEndpoint) Recv(timeout time.Duration) ([]byte, error) {
	if !e.waitRecv {
		return e.Endpoint.Recv(timeout)
	}
	id := e.tr.begin("transport.recv_wait", e.parent(), e.iteration)
	msg, err := e.Endpoint.Recv(timeout)
	e.tr.end(id)
	return msg, err
}
