package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/wire"
)

// Observation is one OK reply a client actually observed. The load generator
// collects these; Verify checks every one against the authoritative logs.
type Observation struct {
	Client uint64
	Req    uint64
	Value  int64
}

// Verify checks the fleet's end state against the at-most-once model; it is
// Audit without the fingerprint.
func (f *Fleet) Verify(obs []Observation) error {
	_, err := f.Audit(obs)
	return err
}

// Audit is the end-of-run check, one replay of every shard's authoritative
// log (its current primary's) through the tenant state machine:
//
//  1. Every log executes cleanly with no duplicate (client, req) — each
//     request ran at most once, fleet-wide.
//  2. Replaying each log reproduces the live primary's tenant state exactly —
//     the state clients will be served from is the state the log proves.
//  3. Every observed OK reply matches the logged result for its (client, req)
//     — output commit held: nothing was answered that failover could lose,
//     and retries never saw a second execution's differing result.
//  4. Every live peer's log is a byte prefix of its primary's: a peer holds
//     nothing the single writer did not ship it.
//
// Because the primary replies only after a peer acks the logged record,
// every observation must appear in the surviving authority even when the
// replica that produced it was killed immediately afterwards.
//
// The same walk folds each shard's index, log length, epoch and replayed
// model state (shard-ordered, tenant-ordered) into one FNV-1a hash: the
// per-seed fingerprint the deterministic traces compare byte-for-byte; it is
// 0 with any error.
func (f *Fleet) Audit(obs []Observation) (checksum uint64, err error) {
	h, word := fnv.New64a(), make([]byte, 8)
	mix := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(word[:0], v)) }
	type key struct{ client, req uint64 }
	// Sized once: every logged record is one first execution, so Executed
	// bounds the logs' total.
	logged := make(map[key]int64, f.counters.Executed)
	for shard, pri := range f.shardPrimaries() {
		if pri == nil {
			return 0, fmt.Errorf("fleet: shard %d has no primary replica", shard)
		}
		mix(uint64(shard))
		mix(uint64(pri.logged))
		mix(pri.epoch)
		model := make(map[uint64]int64, len(pri.state))
		err := pri.log.replay(func(i int, op *wire.ClientOp) error {
			if f.ShardOf(op.Tenant) != shard {
				return fmt.Errorf("log[%d] holds tenant %d of shard %d", i, op.Tenant, f.ShardOf(op.Tenant))
			}
			k := key{op.Client, op.Req}
			if _, dup := logged[k]; dup {
				return fmt.Errorf("(client %d, req %d) executed twice", op.Client, op.Req)
			}
			if got := apply(model, op.Tenant, op.Op, op.Arg); got != op.Result {
				return fmt.Errorf("log[%d]: model result %d, logged %d", i, got, op.Result)
			}
			logged[k] = op.Result
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("fleet: shard %d: %w", shard, err)
		}
		// Every live peer's log must be a byte prefix of the primary's — the
		// single-writer append order means a peer that holds anything else
		// was fed records outside the protocol.
		for _, name := range f.order {
			n := f.nodes[name]
			if !n.Alive {
				continue
			}
			r := n.replicas[shard]
			if r == nil || r == pri {
				continue
			}
			if !r.log.prefixOf(&pri.log) {
				return 0, fmt.Errorf("fleet: shard %d peer on %s holds a log that is not a prefix of the primary's (%d vs %d bytes)",
					shard, name, r.log.size, pri.log.size)
			}
		}
		// The live state a primary serves must equal its log's replay.
		if len(model) != len(pri.state) {
			return 0, fmt.Errorf("fleet: shard %d live state has %d tenants, log replay %d", shard, len(pri.state), len(model))
		}
		tenants := make([]uint64, 0, len(model))
		for t := range model {
			tenants = append(tenants, t)
		}
		slices.Sort(tenants)
		for _, t := range tenants {
			if pri.state[t] != model[t] {
				return 0, fmt.Errorf("fleet: shard %d tenant %d live %d != replayed %d", shard, t, pri.state[t], model[t])
			}
			mix(t)
			mix(uint64(model[t]))
		}
	}
	for _, o := range obs {
		want, ok := logged[key{o.Client, o.Req}]
		if !ok {
			return 0, fmt.Errorf("fleet: client %d observed OK for req %d never present in any surviving log", o.Client, o.Req)
		}
		if want != o.Value {
			return 0, fmt.Errorf("fleet: client %d req %d observed %d, log says %d", o.Client, o.Req, o.Value, want)
		}
	}
	return h.Sum64(), nil
}
