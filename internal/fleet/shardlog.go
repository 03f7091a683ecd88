package fleet

import (
	"bytes"
	"encoding/binary"

	"repro/internal/wire"
)

const (
	// chunkCap is the capacity of one chunk of a shard log. A chunk is
	// allocated once at this capacity and never grows, so a logged byte is
	// never copied again; 16 KiB holds a few hundred records.
	chunkCap = 16 << 10
	// maxOpLen bounds one encoded ClientOp: the type and op bytes and five
	// varints of at most binary.MaxVarintLen64 bytes each.
	maxOpLen = 2 + 5*binary.MaxVarintLen64
)

// shardLog is a shard's encoded ClientOp log, stored in chunks of chunkCap
// bytes. No record straddles two chunks: a record that might not fit in the
// tail's remaining room starts a new chunk. The rule depends only on the
// records' lengths, so two equal logs chunk identically — though every
// comparison here is of logical bytes and does not rely on it.
type shardLog struct {
	chunks [][]byte
	size   int // bytes logged, over all chunks
}

// tail returns the chunk the next record goes into, starting a new one when
// the last has less room than a ClientOp can take.
func (l *shardLog) tail() []byte {
	if n := len(l.chunks); n > 0 && chunkCap-len(l.chunks[n-1]) >= maxOpLen {
		return l.chunks[n-1]
	}
	l.chunks = append(l.chunks, make([]byte, 0, chunkCap))
	return l.chunks[len(l.chunks)-1]
}

// grew stores the tail after an append into it.
func (l *shardLog) grew(old, c []byte) {
	l.chunks[len(l.chunks)-1] = c
	l.size += len(c) - len(old)
}

// appendOp encodes op onto the log: the primary's one encoding of it.
func (l *shardLog) appendOp(op *wire.ClientOp) {
	c := l.tail()
	l.grew(c, wire.AppendClientOp(c, op))
}

// appendRecords appends a run of whole ClientOp records a peer has
// validated. A run that leaves the tail chunk a record's room to spare is one
// copy; any other goes record by record, so the chunks break exactly where
// appendOp would have broken them.
func (l *shardLog) appendRecords(run []byte) {
	if n := len(l.chunks); n > 0 && chunkCap-len(l.chunks[n-1]) >= len(run)+maxOpLen {
		c := l.chunks[n-1]
		l.grew(c, append(c, run...))
		return
	}
	for d, from := wire.NewDecoder(run), 0; d.More(); from = d.Offset() {
		d.Skip()
		c := l.tail()
		l.grew(c, append(c, run[from:d.Offset()]...))
	}
}

// at returns the index of the chunk holding byte offset off and that chunk's
// first offset (len(chunks) and size at the log's end). The search runs from
// the tail, where a link's un-acked suffix starts.
func (l *shardLog) at(off int) (i, start int) {
	i, start = len(l.chunks), l.size
	for i > 0 && start > off {
		i--
		start -= len(l.chunks[i])
	}
	return i, start
}

// appendFrom appends the log's bytes from byte offset off onward to dst.
func (l *shardLog) appendFrom(dst []byte, off int) []byte {
	i, start := l.at(off)
	for j, c := range l.chunks[i:] {
		if j == 0 {
			c = c[off-start:]
		}
		dst = append(dst, c...)
	}
	return dst
}

// suffix returns the log's bytes from byte offset off onward. When they lie
// in the tail chunk — a link's un-acked suffix almost always does — they are
// a view of it, whose bytes never move; otherwise they are copied into
// *scratch, which keeps its capacity for the next cut.
func (l *shardLog) suffix(off int, scratch *[]byte) []byte {
	switch i, start := l.at(off); i {
	case len(l.chunks):
		return nil
	case len(l.chunks) - 1:
		return l.chunks[i][off-start:]
	}
	*scratch = l.appendFrom((*scratch)[:0], off)
	return *scratch
}

// replay is the one walk over a shard log — promotion and Audit both run
// apply from its visit: each record is decoded into a single reused ClientOp
// and visited with its index. A record that does not decode as a ClientOp, or
// a visit's error, ends the walk.
func (l *shardLog) replay(visit func(i int, op *wire.ClientOp) error) error {
	var op wire.ClientOp
	i := 0
	for _, c := range l.chunks {
		for d := wire.NewDecoder(c); d.More(); i++ {
			if err := d.ClientOp(&op); err != nil {
				return err
			}
			if err := visit(i, &op); err != nil {
				return err
			}
		}
	}
	return nil
}

// clone returns a copy that shares no bytes with l — a state transfer or a
// max-log adoption gives the receiving replica a log of its own. Full chunks
// are copied at their length; only the tail keeps room to grow.
func (l *shardLog) clone() shardLog {
	c := shardLog{chunks: make([][]byte, len(l.chunks)), size: l.size}
	for i, b := range l.chunks {
		capacity := len(b)
		if i == len(l.chunks)-1 {
			capacity = chunkCap
		}
		c.chunks[i] = append(make([]byte, 0, capacity), b...)
	}
	return c
}

// prefixOf reports whether l's bytes are a prefix of o's, comparing logical
// bytes wherever either log's chunks break.
func (l *shardLog) prefixOf(o *shardLog) bool {
	var a, b []byte
	for i, j := 0, 0; ; {
		for len(a) == 0 && i < len(l.chunks) {
			a, i = l.chunks[i], i+1
		}
		if len(a) == 0 {
			return true
		}
		for len(b) == 0 && j < len(o.chunks) {
			b, j = o.chunks[j], j+1
		}
		if len(b) == 0 {
			return false
		}
		n := min(len(a), len(b))
		if !bytes.Equal(a[:n], b[:n]) {
			return false
		}
		a, b = a[n:], b[n:]
	}
}
