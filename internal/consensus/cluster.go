package consensus

import (
	"fmt"
	"time"

	"repro/internal/simtest/clock"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cluster owns a fixed set of replicas and the full mesh of links between
// them. It is a harness object: production shape would place replicas in
// separate processes, but the protocol code neither knows nor cares.
type Cluster struct {
	clk      clock.Clock
	replicas []*Replica
}

// NewCluster builds (but does not start) a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.fill()
	if cfg.Replicas < 1 || cfg.Replicas%2 == 0 {
		return nil, fmt.Errorf("consensus: replica count %d must be odd and positive", cfg.Replicas)
	}
	clk := clock.Or(cfg.Clock)
	c := &Cluster{clk: clk, replicas: make([]*Replica, cfg.Replicas)}
	for i := range c.replicas {
		c.replicas[i] = newReplica(i, &cfg, clk)
	}
	for i := 0; i < cfg.Replicas; i++ {
		for j := i + 1; j < cfg.Replicas; j++ {
			var ei, ej transport.Endpoint
			if cfg.Link != nil {
				ei, ej = cfg.Link(i, j)
			} else {
				ei, ej = transport.PipeClock(transport.PipeCapacity, clk)
			}
			c.replicas[i].peers[j] = ei
			c.replicas[j].peers[i] = ej
		}
	}
	return c, nil
}

// Start spawns every replica's actors.
func (c *Cluster) Start() {
	for _, r := range c.replicas {
		r.start()
	}
}

// Size returns the replica count.
func (c *Cluster) Size() int { return len(c.replicas) }

// Replica returns member i.
func (c *Cluster) Replica(i int) *Replica { return c.replicas[i] }

// Leader returns the current ready leader (barrier committed), if any.
func (c *Cluster) Leader() (*Replica, bool) {
	for _, r := range c.replicas {
		if !r.Stopped() && r.Ready() {
			return r, true
		}
	}
	return nil, false
}

// WaitLeader blocks until some live replica is a ready leader, polling on
// the injected clock (deterministic under the virtual clock). timeout <= 0
// waits forever.
func (c *Cluster) WaitLeader(timeout time.Duration) (*Replica, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = c.clk.Now().Add(timeout)
	}
	for {
		if r, ok := c.Leader(); ok {
			return r, nil
		}
		if timeout > 0 && !c.clk.Now().Before(deadline) {
			return nil, fmt.Errorf("consensus: no leader within %v", timeout)
		}
		c.clk.Sleep(500 * time.Microsecond)
	}
}

// Kill fail-stops replica i.
func (c *Cluster) Kill(i int) { c.replicas[i].Stop() }

// Stop kills every replica and waits for their actors to exit, so a virtual
// clock harness is left with no parked consensus goroutines.
func (c *Cluster) Stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
	for _, r := range c.replicas {
		r.Done()
	}
}

// CommittedPayloads returns copies of replica i's committed entry payloads
// in (from, commitIndex] — barrier entries skipped — plus the new commit
// index, so a poller (the ftvm kill trigger) can count records incrementally
// without re-decoding the whole log each tick.
func (c *Cluster) CommittedPayloads(i int, from uint64) ([][]byte, uint64) {
	r := c.replicas[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	commit := r.commitIndex
	var out [][]byte
	for idx := from; idx < commit; idx++ {
		e := r.log[idx]
		if len(e.payload) == 0 {
			continue
		}
		cp := make([]byte, len(e.payload))
		copy(cp, e.payload)
		out = append(out, cp)
	}
	return out, commit
}

// ReadBack reads the committed record stream back from leader, or — when
// leader has stopped — from whichever survivor the election then makes leader
// (within timeout), whose barrier commit fences every entry that survived. It
// returns the records, the replica it read them at, and that replica's term.
func (c *Cluster) ReadBack(leader *Replica, timeout time.Duration) ([]wire.Record, *Replica, uint64, error) {
	if leader.Stopped() {
		var err error
		if leader, err = c.WaitLeader(timeout); err != nil {
			return nil, nil, 0, err
		}
	}
	term := leader.Term()
	recs, err := c.CommittedRecords(leader.ID())
	return recs, leader, term, err
}

// CommittedRecords decodes replica i's committed prefix back into the record
// stream a Backup can load: each committed entry's payload is a wire record
// batch (barrier entries are empty and decode to nothing). This is the
// consensus analogue of Backup.Store().Records().
func (c *Cluster) CommittedRecords(i int) ([]wire.Record, error) {
	r := c.replicas[i]
	r.mu.Lock()
	commit := r.commitIndex
	entries := make([]entry, commit)
	copy(entries, r.log[:commit])
	r.mu.Unlock()
	var out []wire.Record
	for idx, e := range entries {
		if len(e.payload) == 0 {
			continue // election barrier
		}
		recs, err := wire.DecodeAll(e.payload)
		if err != nil {
			return nil, fmt.Errorf("consensus: committed entry %d undecodable: %w", idx+1, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}
