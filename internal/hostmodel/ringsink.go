package hostmodel

import "gem5prof/internal/ring"

// RingSink is a Sink that encodes the micro-event stream into compact
// ring.Records, batched into the ring's in-place slots (no per-record
// allocation), for a consumer goroutine (uarch.Consumer) to drain in strict
// FIFO order. No co-simulation uses it any more; it remains only because
// bench/ times the ring path (DESIGN.md §15).
//
// RingSink is not safe for concurrent use — it belongs to the single
// producer goroutine, exactly like the CodeModel that feeds it.
type RingSink struct {
	r   *ring.Ring
	cur *ring.Batch // reserved, partially filled slot; nil when none
	// down latches once the consumer aborts: every later event is dropped
	// so the producer can wind down instead of wedging on a dead ring.
	down bool
}

// NewRingSink returns a Sink encoding into r.
func NewRingSink(r *ring.Ring) *RingSink { return &RingSink{r: r} }

// put appends one record, reserving a fresh batch on demand and publishing
// full batches immediately.
func (s *RingSink) put(rec ring.Record) {
	if s.down {
		return
	}
	if s.cur == nil {
		if s.cur = s.r.Reserve(); s.cur == nil {
			s.down = true
			return
		}
	}
	if s.cur.Append(rec) {
		s.r.Commit()
		s.cur = nil
	}
}

// FetchBlock implements Sink.
func (s *RingSink) FetchBlock(addr uint64, bytes uint32, uops uint32) {
	s.put(ring.Record{Op: ring.OpFetch, Addr: addr, A: bytes, B: uops})
}

// Branch implements Sink.
func (s *RingSink) Branch(pc, target uint64, taken, indirect bool) {
	var flags uint8
	if taken {
		flags |= ring.FlagTaken
	}
	if indirect {
		flags |= ring.FlagIndirect
	}
	s.put(ring.Record{Op: ring.OpBranch, Addr: pc, Arg: target, Flags: flags})
}

// Data implements Sink.
func (s *RingSink) Data(addr uint64, size uint32, write bool) {
	var flags uint8
	if write {
		flags |= ring.FlagWrite
	}
	s.put(ring.Record{Op: ring.OpData, Addr: addr, A: size, Flags: flags})
}

// Flush publishes the current partially filled batch, if any.
func (s *RingSink) Flush() {
	if s.cur != nil {
		s.r.Commit()
		s.cur = nil
	}
}

// Close flushes and closes the ring: the consumer drains what was
// published and then its drain loop exits. Close is the first half of the
// flush-on-report barrier (the second half is waiting for the consumer).
func (s *RingSink) Close() {
	s.Flush()
	s.r.Close()
}

// Err surfaces a consumer-side abort, if any.
func (s *RingSink) Err() error { return s.r.Err() }

var _ Sink = (*RingSink)(nil)
