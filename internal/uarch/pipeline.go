package uarch

import (
	"context"
	"runtime/pprof"

	"gem5prof/internal/ring"
)

// This file is the consumer half of the pipelined co-simulation: decoding
// batched ring.Records back into Machine sink calls and running the drain
// loop on its own goroutine. Because the ring is strict-FIFO SPSC and
// every record maps to exactly one sink call, the Machine's state after a
// drain is bit-identical to what the same event stream produces when
// applied synchronously (the differential test in internal/core proves
// this end to end).

// ApplyBatch decodes a whole batch, in record order, into the sink calls
// its records encode.
func (m *Machine) ApplyBatch(b *ring.Batch) {
	recs := b.Records()
	for i := range recs {
		rec := &recs[i]
		switch rec.Op {
		case ring.OpFetch:
			m.FetchBlock(rec.Addr, rec.A, rec.B)
		case ring.OpBranch:
			m.Branch(rec.Addr, rec.Arg,
				rec.Flags&ring.FlagTaken != 0, rec.Flags&ring.FlagIndirect != 0)
		case ring.OpData:
			m.Data(rec.Addr, rec.A, rec.Flags&ring.FlagWrite != 0)
		}
	}
}

// Consumer drives one Machine — every lane of a co-simulation — from a
// trace ring on a dedicated goroutine. Lifecycle: Start once, then — after
// the producer has flushed and closed the ring — Wait, which is the
// flush-on-report barrier: once Wait returns, every published record has
// been applied and the Machine may be Report()ed (or otherwise read) safely
// from the caller's goroutine.
type Consumer struct {
	m    *Machine
	r    *ring.Ring
	done chan struct{}
}

// NewConsumer pairs m with r; call Start to begin draining.
func NewConsumer(m *Machine, r *ring.Ring) *Consumer { return &Consumer{m: m, r: r} }

// Start launches the drain goroutine. The goroutine carries the pprof
// label cosim-stage=uarch-consumer so -cpuprofile output attributes its
// time separately from the producer's. Start is not idempotent-safe
// against concurrent calls; call it once from the producer's goroutine.
func (c *Consumer) Start() {
	if c.done != nil {
		return
	}
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		pprof.Do(context.Background(),
			pprof.Labels("cosim-stage", "uarch-consumer"),
			func(context.Context) {
				for {
					b := c.r.Acquire()
					if b == nil {
						return
					}
					c.m.ApplyBatch(b)
					c.r.Release()
				}
			})
	}()
}

// Wait blocks until the drain goroutine is done with the Machine — until
// the ring was closed and every published batch applied (or the consumer
// aborted). The goroutine signals that on its way out, so it may not have
// exited yet when Wait returns. After Wait the caller has exclusive access
// to the Machine again. Wait on a never-Started consumer returns
// immediately.
func (c *Consumer) Wait() {
	if c.done != nil {
		<-c.done
	}
}
