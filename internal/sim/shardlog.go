package sim

import "sync"

// Deferred tracer replay for sharded execution.
//
// Under sharded execution each shard's tracer activity (Call/Data records)
// is appended to a per-shard log instead of being fed to the real Tracer
// inline: the real Tracer is a stateful host model (or its ring encoder)
// whose record order must equal the serial simulation's byte for byte, and
// two shards firing concurrently cannot share it. A replayer goroutine
// merges the two logs below the published safe frontier — in exactly the
// event order the single-queue simulation would have used — and feeds the
// merged stream to the real Tracer.

// recKind distinguishes deferred tracer records.
type recKind uint8

const (
	recCall recKind = iota
	recData
)

// traceRec is one deferred Tracer call.
type traceRec struct {
	kind  recKind
	write bool
	size  uint32
	fn    FuncID
	addr  uint64
}

// groupKey is the full queue-ordering key of one dispatched event: the
// deterministic merge position of its trace group. It mirrors Event.before
// (minus the per-queue seq, which is not comparable across shards; residual
// full-key ties merge lower shard first).
type groupKey struct {
	when  Tick
	prio  int
	stamp schedStamp
}

// less orders group keys like Event.before.
func (k groupKey) less(o groupKey) bool {
	if k.when != o.when {
		return k.when < o.when
	}
	if k.prio != o.prio {
		return k.prio < o.prio
	}
	l, _ := k.stamp.less(o.stamp)
	return l
}

// segment is a flushable chunk of one shard's trace log: a flat record
// arena indexed by per-group offsets, so appends never copy per record.
type segment struct {
	keys []groupKey
	offs []int // offs[i] = start of group i in recs; len(keys)+1 entries
	recs []traceRec
}

// segPool recycles drained trace segments (and their backing arenas)
// between the replayer and the shard logs: a simulation flushes one segment
// per active shard per barrier round, and without reuse the arena batches
// dominated allocation (~300 allocs/op and 3x bytes/op in the sharded
// co-sim benchmark). Pooling is invisible to determinism — a recycled
// segment is length-reset before reuse and carries no ordering state.
var segPool = sync.Pool{New: func() any { return new(segment) }}

// recycleSegment resets a fully replayed segment and returns it to the pool,
// keeping the arena capacity.
func recycleSegment(s *segment) {
	s.keys = s.keys[:0]
	s.offs = s.offs[:0]
	s.recs = s.recs[:0]
	segPool.Put(s)
}

// shardLog accumulates trace groups for one shard. It is written only by
// the goroutine currently executing that shard and handed over (flushed)
// only at barrier points, so it needs no locking.
type shardLog struct {
	seg *segment
}

func newShardLog() *shardLog {
	return &shardLog{seg: segPool.Get().(*segment)}
}

// begin opens a new trace group for the event with the given key: offs[i]
// records where group i's records start. take appends the terminator.
func (l *shardLog) begin(k groupKey) {
	l.seg.keys = append(l.seg.keys, k)
	l.seg.offs = append(l.seg.offs, len(l.seg.recs))
}

func (l *shardLog) call(fn FuncID) {
	l.seg.recs = append(l.seg.recs, traceRec{kind: recCall, fn: fn})
}

func (l *shardLog) data(addr uint64, size uint32, write bool) {
	l.seg.recs = append(l.seg.recs, traceRec{kind: recData, addr: addr, size: size, write: write})
}

// take detaches the filled segment, replacing it from the segment pool (a
// recycled arena in steady state, so barrier rounds stop allocating).
func (l *shardLog) take() *segment {
	s := l.seg
	// Terminate: offs gets len(keys)+1 entries, the last one len(recs), so
	// group i's records are recs[offs[i]:offs[i+1]].
	s.offs = append(s.offs, len(s.recs))
	l.seg = segPool.Get().(*segment)
	return s
}

// empty reports whether the current segment holds no groups.
func (l *shardLog) empty() bool { return len(l.seg.keys) == 0 }

// replayBatch is one hand-off from the coordinator to the replayer: each
// shard's newly completed segment (nil when it logged nothing) plus the
// per-shard safe marks. mark[s] guarantees that shard s will never log
// another group with key.when < mark[s].
type replayBatch struct {
	segs  [2]*segment
	mark  [2]Tick
	final bool // no further batches: drain everything
}

// shardTracer is the per-view Tracer shim installed by EnableSharding. While
// the engine is not running (construction, startup, between Run calls) it is
// a transparent passthrough to the real tracer; during a sharded run Call and
// Data append to the view's shard log for deferred replay. RegisterFunc and
// AllocData mutate tracer state that cannot be replayed and are construction-
// time operations everywhere in the tree, so mid-run use panics.
type shardTracer struct {
	eng   *shardEngine
	shard int
	under Tracer
}

func (t *shardTracer) RegisterFunc(name string, codeBytes int, flags FuncFlags) FuncID {
	if t.eng.running {
		panic("sim: RegisterFunc during a sharded run (register host functions at construction time)")
	}
	return t.under.RegisterFunc(name, codeBytes, flags)
}

func (t *shardTracer) Call(fn FuncID) {
	if !t.eng.running {
		t.under.Call(fn)
		return
	}
	if t.eng.traceOff {
		return
	}
	t.eng.log[t.shard].call(fn)
}

func (t *shardTracer) Data(addr uint64, size uint32, write bool) {
	if !t.eng.running {
		t.under.Data(addr, size, write)
		return
	}
	if t.eng.traceOff {
		return
	}
	t.eng.log[t.shard].data(addr, size, write)
}

func (t *shardTracer) AllocData(name string, bytes uint64) uint64 {
	if t.eng.running {
		panic("sim: AllocData during a sharded run (allocate host data at construction time)")
	}
	return t.under.AllocData(name, bytes)
}

// replayStream is the replayer's view of one shard's ordered group stream.
type replayStream struct {
	segs []*segment
	si   int // current segment
	gi   int // current group within it
}

func (st *replayStream) head() (groupKey, bool) {
	for st.si < len(st.segs) {
		if st.gi < len(st.segs[st.si].keys) {
			return st.segs[st.si].keys[st.gi], true
		}
		// Fully replayed: recycle the segment's arenas. Consumed entries are
		// also dropped from the slice head once it is fully drained (the
		// stream keeps absolute indices otherwise).
		recycleSegment(st.segs[st.si])
		st.segs[st.si] = nil
		st.si++
		st.gi = 0
	}
	st.segs = st.segs[:0]
	st.si = 0
	return groupKey{}, false
}

// pop replays the current head group into tr and advances.
func (st *replayStream) pop(tr Tracer) {
	seg := st.segs[st.si]
	lo, hi := seg.offs[st.gi], seg.offs[st.gi+1]
	for i := lo; i < hi; i++ {
		r := &seg.recs[i]
		if r.kind == recCall {
			tr.Call(r.fn)
		} else {
			tr.Data(r.addr, r.size, r.write)
		}
	}
	st.gi++
}

// nextStream returns the shard whose head group replays next, or -1 if none
// may yet. The serial-next group is the smaller of the two stream heads (full
// ties: CPU shard first): each stream lists its shard's dispatches in pop
// order, which equals the serial order restricted to that shard. With one
// head visible, emitting it is safe once the other shard provably cannot log
// anything below it (its mark, or the final batch).
func nextStream(streams *[2]replayStream, mark [2]Tick, final bool) int {
	kc, okc := streams[shardCPU].head()
	km, okm := streams[shardMem].head()
	switch {
	case okc && okm:
		if km.less(kc) {
			return shardMem
		}
		return shardCPU
	case okc && (final || kc.when < mark[shardMem]):
		return shardCPU
	case okm && (final || km.when < mark[shardCPU]):
		return shardMem
	}
	return -1
}

// replayLoop drains replayBatches, merging the two shards' streams in
// deterministic key order and feeding the real tracer. The merge order is a
// pure function of the logs; batch boundaries and marks only affect when
// groups become eligible, never their order.
func (eng *shardEngine) replayLoop() {
	defer close(eng.replayDone)
	var streams [2]replayStream
	final := false
	for !final {
		batch, ok := <-eng.replayCh
		if !ok {
			break
		}
		for i, seg := range batch.segs {
			if seg != nil {
				streams[i].segs = append(streams[i].segs, seg)
			}
		}
		final = batch.final
		for {
			s := nextStream(&streams, batch.mark, final)
			if s < 0 {
				break
			}
			streams[s].pop(eng.under)
		}
	}
}
