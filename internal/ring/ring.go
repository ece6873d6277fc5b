// Package ring provides a bounded single-producer/single-consumer batch
// ring that can decouple the co-simulation's two stages: the guest
// discrete-event simulator plus hostmodel trace synthesis (the producer)
// and the host micro-architecture model (the consumer), each on its own
// goroutine. No co-simulation runs that way any more — the pipelined path
// lost to the serial one (DESIGN.md §15) — and the package remains only
// because bench/ times it.
//
// Design points, all in service of a lock-free steady state and strict
// FIFO delivery:
//
//   - Records are compact tagged structs (one of FetchBlock/Branch/Data),
//     moved in fixed-size Batches that live inside the ring's slot array,
//     so the hot path performs no per-record (or per-batch) allocation.
//   - The producer reserves a slot in place, fills it, and publishes it
//     with a single atomic store of the tail; the consumer acquires with
//     an atomic load and releases by storing the head. Head and tail sit
//     on separate cache lines to avoid false sharing.
//   - Parking is strictly an edge behaviour: a side blocks only when the
//     ring is completely empty (consumer) or completely full (producer),
//     using a Dekker-style parked-flag + buffered-channel handshake. While
//     both sides keep up with each other no channel operation, mutex, or
//     syscall happens at all.
//
// Because there is exactly one producer and one consumer and batches are
// delivered in publication order, the consumer observes every record in
// exactly the order the producer emitted it — which is what makes a
// machine fed through the ring count what one fed directly counts.
package ring

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Op tags the kind of host-trace record.
type Op uint8

// Record kinds, mirroring the three methods of hostmodel.Sink.
const (
	// OpFetch models sequential execution of a code block
	// (Addr=address, A=bytes, B=uops).
	OpFetch Op = iota
	// OpBranch models one executed branch
	// (Addr=pc, Arg=target, Flags carries taken/indirect).
	OpBranch
	// OpData models one data access (Addr=address, A=size, Flags carries
	// write).
	OpData
)

// Record flag bits.
const (
	FlagTaken    uint8 = 1 << iota // branch was taken
	FlagIndirect                   // branch is indirect
	FlagWrite                      // data access is a store
)

// Record is one compact host-trace record: a tagged encoding of one
// hostmodel.Sink call. 32 bytes, no pointers.
type Record struct {
	Addr  uint64 // code address (fetch/branch pc) or data address
	Arg   uint64 // branch target
	A     uint32 // fetch bytes / data size
	B     uint32 // fetch uops
	Op    Op
	Flags uint8
}

// BatchRecords is the capacity of one Batch. At 32 bytes per record a full
// batch is 16 KiB — big enough to amortize the publication atomics down to
// noise, small enough that a handful of in-flight batches stay cache- and
// TLB-resident while crossing cores.
const BatchRecords = 512

// Batch is a fixed-size block of records. Batches are embedded in the
// ring's slot array and reused in place; they are never allocated on the
// hot path.
type Batch struct {
	n   int32
	rec [BatchRecords]Record
}

// Reset empties the batch for refilling.
func (b *Batch) Reset() { b.n = 0 }

// Len returns the number of records currently in the batch.
func (b *Batch) Len() int { return int(b.n) }

// Append adds r and reports whether the batch is now full (i.e. the caller
// must publish it before appending again).
func (b *Batch) Append(r Record) bool {
	b.rec[b.n] = r
	b.n++
	return int(b.n) == len(b.rec)
}

// Records returns the filled prefix of the batch.
func (b *Batch) Records() []Record { return b.rec[:b.n] }

type pad [64]byte

// Ring is a bounded SPSC ring of batches. Exactly one goroutine may call
// the producer methods (Reserve/Commit/Close) and exactly one the consumer
// methods (Acquire/Release/Abort); the two may differ. The zero Ring is
// not usable; construct with New.
type Ring struct {
	slots []Batch
	mask  uint64

	_    pad
	head atomic.Uint64 // next slot the consumer will take
	_    pad
	tail atomic.Uint64 // next slot the producer will fill
	_    pad

	// prodParked/consParked implement the Dekker-style handshake: a side
	// publishes that it is about to sleep, re-checks the condition, then
	// blocks on its buffered wake channel. The opposite side stores its
	// index first and then checks the flag, so under sequentially
	// consistent atomics at least one of the two observes the other.
	prodParked atomic.Bool
	consParked atomic.Bool
	notFull    chan struct{}
	notEmpty   chan struct{}

	closed    atomic.Bool
	closeCh   chan struct{}
	closeOnce sync.Once

	aborted   atomic.Bool
	abortErr  error // written once before abortCh closes
	abortCh   chan struct{}
	abortOnce sync.Once
}

// New returns a ring with the given number of batch slots, rounded up to a
// power of two (minimum 1).
func New(slots int) *Ring {
	if slots < 1 {
		slots = 1
	}
	if slots&(slots-1) != 0 {
		slots = 1 << bits.Len(uint(slots))
	}
	return &Ring{
		slots:    make([]Batch, slots),
		mask:     uint64(slots - 1),
		notFull:  make(chan struct{}, 1),
		notEmpty: make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
		abortCh:  make(chan struct{}),
	}
}

// Cap returns the number of batch slots.
func (r *Ring) Cap() int { return len(r.slots) }

// Reserve returns the next free slot's batch, reset and ready to fill,
// blocking while the ring is full. It returns nil once the consumer has
// aborted (see Abort): the producer should stop emitting and surface
// r.Err(). The caller owns the returned batch until Commit.
func (r *Ring) Reserve() *Batch {
	if r.aborted.Load() {
		return nil
	}
	t := r.tail.Load()
	for {
		if t-r.head.Load() < uint64(len(r.slots)) {
			b := &r.slots[t&r.mask]
			b.Reset()
			return b
		}
		// Ring full: park until the consumer frees a slot. Publish the
		// intent first, then re-check, so a concurrent Release cannot slip
		// between check and sleep unseen.
		r.prodParked.Store(true)
		if t-r.head.Load() < uint64(len(r.slots)) {
			r.prodParked.Store(false)
			continue
		}
		select {
		case <-r.notFull:
		case <-r.abortCh:
			r.prodParked.Store(false)
			return nil
		}
		r.prodParked.Store(false)
	}
}

// Commit publishes the batch most recently returned by Reserve. The
// producer must not touch that batch afterwards.
func (r *Ring) Commit() {
	r.tail.Store(r.tail.Load() + 1)
	if r.consParked.Load() {
		select {
		case r.notEmpty <- struct{}{}:
		default:
		}
	}
}

// Close marks the stream complete: once the consumer drains the published
// batches, Acquire returns nil. Close is idempotent and must be called by
// the producer side (it does not publish a partially filled reservation —
// commit or drop that first).
func (r *Ring) Close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.closeCh)
	})
}

// Acquire returns the oldest published batch, blocking while the ring is
// empty. It returns nil when the ring is closed and fully drained, or when
// the consumer side has aborted. The caller owns the batch until Release.
func (r *Ring) Acquire() *Batch {
	h := r.head.Load()
	for {
		if h != r.tail.Load() {
			return &r.slots[h&r.mask]
		}
		if r.closed.Load() && h == r.tail.Load() {
			return nil
		}
		if r.aborted.Load() {
			return nil
		}
		r.consParked.Store(true)
		if h != r.tail.Load() || r.closed.Load() {
			r.consParked.Store(false)
			continue
		}
		select {
		case <-r.notEmpty:
		case <-r.closeCh:
		case <-r.abortCh:
		}
		r.consParked.Store(false)
	}
}

// Release retires the batch most recently returned by Acquire, freeing its
// slot for the producer.
func (r *Ring) Release() {
	r.head.Store(r.head.Load() + 1)
	if r.prodParked.Load() {
		select {
		case r.notFull <- struct{}{}:
		default:
		}
	}
}

// Abort tears the pipeline down from the consumer side: the producer's
// next Reserve (including one currently parked on a full ring) returns
// nil, and Err reports err ever after. The first Abort wins; err may be
// nil, in which case Err reports a generic abort error.
func (r *Ring) Abort(err error) {
	r.abortOnce.Do(func() {
		if err == nil {
			err = fmt.Errorf("ring: consumer aborted")
		}
		r.abortErr = err
		r.aborted.Store(true)
		close(r.abortCh)
	})
}

// Err returns the abort error, or nil if the consumer never aborted.
func (r *Ring) Err() error {
	select {
	case <-r.abortCh:
		return r.abortErr
	default:
		return nil
	}
}

// Drained reports whether every published batch has been released. It is
// exact only once the producer has stopped publishing (e.g. after Close);
// the flush-on-report barrier in internal/uarch relies on Close + drain
// loop exit rather than polling this.
func (r *Ring) Drained() bool { return r.head.Load() == r.tail.Load() }
