package sim

import "fmt"

// Sharded execution: two event queues under a conservative quantum barrier.
//
// EnableSharding splits one System across two event queues that advance in
// parallel: the CPU shard — every domain but DomainMem — executes on the
// goroutine that called Run (the coordinator), and the memory shard — DRAM —
// executes on a worker goroutine inside granted windows. The protocol is
// conservative PDES (a null-message-free CMB variant) with one latency floor
// per direction:
//
//   - Cross-shard Schedule calls never touch the other shard's queue
//     directly; they are appended to a per-direction outbox (mailbox) and
//     merged into the destination queue at barrier points, in posting order,
//     carrying the poster's provenance stamp. Merge points and order are
//     pure functions of simulation state, so event seq assignment — and with
//     it every stat, trace, and report — is bit-identical to the serial run.
//     Each post is validated against its direction's floor (BusLookahead for
//     cpu→mem, Quantum for mem→cpu); a post below the floor panics naming
//     the edge and window.
//
//   - The memory shard may fire events strictly below the earliest tick any
//     future cross post onto it can target: the bounce-back path (its own
//     next event plus the round-trip mem→cpu→mem floor), and — while the CPU
//     shard has eligible work — the CPU shard's next event tick itself,
//     because any CPU-side event may RequestExit and exit truncation must
//     never have overshot it. The window [floor, horizon) is handed to the
//     worker as a grant.
//
//   - The CPU shard may fire events strictly below the earliest possible
//     memory-side post onto it: the memory shard's earliest pending or
//     in-flight event — including posts sitting in the cpu→mem outbox — plus
//     Quantum. The bound tightens live as the burst itself posts to memory.
type shardEngine struct {
	views   [2]*System // shardCPU (the root), shardMem
	quantum Tick       // mem→cpu floor
	busLook Tick       // cpu→mem floor (0 = unfloored)

	under    Tracer // the real tracer, fed only by the replayer
	traceOff bool   // under is a NopTracer: skip logging entirely
	running  bool

	outbox [2]outboxT // outbox[src]: posts from shard src bound for the other
	log    [2]*shardLog

	grantCh    chan grant
	joinCh     chan joinMsg
	replayCh   chan replayBatch
	replayDone chan struct{}

	// Coordinator-owned state; the worker reads grantFloor/grantHorizon only
	// inside a granted window (the grant send/join receive order the access).
	workerBusy   bool
	grantFloor   Tick
	grantHorizon Tick
	mark         [2]Tick // per-shard replay marks (see replayBatch)
}

// post is one cross-shard Schedule waiting in a mailbox.
type post struct {
	e     *Event
	when  Tick
	stamp schedStamp
}

type outboxT struct {
	posts   []post
	minWhen Tick // min when of pending posts; MaxTick when empty
}

// grant hands the worker one firing window: events with when < horizon and
// when <= limit.
type grant struct {
	horizon Tick
	limit   Tick
}

// joinMsg reports a completed window back to the coordinator.
type joinMsg struct {
	panicv any // recovered panic to re-raise on the coordinator, or nil
}

// addSat is saturating tick addition.
func addSat(a, b Tick) Tick {
	if c := a + b; c >= a {
		return c
	}
	return MaxTick
}

// describe renders a shard for panic messages.
func (eng *shardEngine) describe(shard int) string {
	if shard == shardMem {
		return fmt.Sprintf("shard %d (%s), window [%d, %d), quantum %d",
			shard, shardNames[shard], eng.grantFloor, eng.grantHorizon, eng.quantum)
	}
	return fmt.Sprintf("shard %d (%s)", shard, shardNames[shard])
}

// post routes a Schedule from src onto the other shard: through the mailbox
// after validation against the direction's floor. The fnSchedule trace call
// and the provenance stamp are taken on the posting side, exactly where the
// single-queue run would take them.
func (eng *shardEngine) post(src *System, e *Event, when Tick) {
	dst := 1 - src.shard
	src.TraceCall(src.fnSchedule)
	if !eng.running {
		// Construction/startup time: insert directly into the owning queue,
		// which validates when against its own clock.
		eng.views[dst].queue.Schedule(e, when)
		return
	}
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: event %s scheduled twice [%s]", e.name, eng.describe(src.shard)))
	}
	now := src.queue.Now()
	if when < now {
		panic(fmt.Sprintf("sim: event %s scheduled at %d before now %d [%s]",
			e.name, when, now, eng.describe(src.shard)))
	}
	lk := eng.busLook
	if src.shard == shardMem {
		lk = eng.quantum
	}
	if when < addSat(now, lk) {
		panic(fmt.Sprintf(
			"sim: cross-shard post of %s at %d violates the %s→%s edge lookahead %d (quantum barrier): %s is at %d, floor %d",
			e.name, when, shardNames[src.shard], shardNames[dst], lk, eng.describe(src.shard), now, addSat(now, lk)))
	}
	stp := schedStamp{at: now}
	if st, ok := src.queue.(stampTaker); ok {
		stp = st.takeStamp(now)
	}
	ob := &eng.outbox[src.shard]
	ob.posts = append(ob.posts, post{e: e, when: when, stamp: stp})
	if when < ob.minWhen {
		ob.minWhen = when
	}
}

// stampTaker is satisfied by every queue backend via the embedded stamper.
type stampTaker interface {
	takeStamp(now Tick) schedStamp
}

// panicContexter is satisfied by every queue backend via the embedded stamper.
type panicContexter interface {
	SetPanicContext(fn func() string)
}

// deliver merges shard src's outbox into the other shard's queue in posting
// order — a deterministic order at a deterministic barrier point, so
// destination seq assignment matches the serial run.
func (eng *shardEngine) deliver(src int) {
	ob := &eng.outbox[src]
	if len(ob.posts) == 0 {
		return
	}
	q := eng.views[1-src].queue
	for i := range ob.posts {
		p := &ob.posts[i]
		p.e.stamp = p.stamp
		p.e.stampSet = true
		// The barrier protocol guarantees posted ticks are at or beyond the
		// destination's clock (Quantum floor on mem→cpu, grant horizon cap on
		// cpu→mem); the queue's own Schedule guard still enforces it.
		//lint:allow pastsched conservative barrier bounds posted ticks; destination queue re-validates
		q.Schedule(p.e, p.when)
		ob.posts[i] = post{}
	}
	ob.posts = ob.posts[:0]
	ob.minWhen = MaxTick
}

// dispatchOne fires the head event e of v's queue, logging its trace group.
func (eng *shardEngine) dispatchOne(v *System, e *Event) {
	if !eng.traceOff {
		eng.log[v.shard].begin(groupKey{when: e.when, prio: e.prio, stamp: e.stamp})
	}
	// Count before firing so an event that requests exit is counted, exactly
	// as the serial loop counts it.
	v.serviced++
	v.TraceCall(v.fnDispatch)
	v.queue.ServiceOne()
}

// dispatchOneCatching is dispatchOne with RequestExit translation; CPU shard
// only (exit-capable components all live there).
func (eng *shardEngine) dispatchOneCatching(v *System, e *Event, res *RunResult) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			if ex, ok := r.(*exitRequest); ok {
				res.Status = ExitRequested
				res.ExitReason = ex.reason
				res.ExitCode = ex.code
				stop = true
				return
			}
			panic(r)
		}
	}()
	eng.dispatchOne(v, e)
	return false
}

// worker executes granted memory-shard windows until the grant channel
// closes. Panics are captured and re-raised on the coordinator.
func (eng *shardEngine) worker() {
	mv := eng.views[shardMem]
	for g := range eng.grantCh {
		var msg joinMsg
		func() {
			defer func() {
				if r := recover(); r != nil {
					msg.panicv = r
				}
			}()
			for {
				e := mv.queue.Peek()
				if e == nil || e.when >= g.horizon || e.when > g.limit {
					return
				}
				eng.dispatchOne(mv, e)
			}
		}()
		eng.joinCh <- msg
	}
}

// joinWorker waits out the in-flight window and re-raises worker panics.
// A RequestExit from the memory shard (no such component exists today) is
// honored as a clean stop.
func (eng *shardEngine) joinWorker(res *RunResult) (stopped bool) {
	msg := <-eng.joinCh
	eng.workerBusy = false
	if msg.panicv == nil {
		return false
	}
	if ex, ok := msg.panicv.(*exitRequest); ok {
		res.Status = ExitRequested
		res.ExitReason = ex.reason
		res.ExitCode = ex.code
		return true
	}
	panic(msg.panicv)
}

// flushReplay hands completed log segments (and updated marks) to the
// replayer. Only called while the worker is idle — the memory shard's log is
// single-writer. The final flush closes the stream and waits for the replay
// to drain, so the real tracer has consumed every record before Run returns.
func (eng *shardEngine) flushReplay(final bool) {
	if eng.traceOff {
		return
	}
	b := replayBatch{mark: eng.mark, final: final}
	for i, l := range eng.log {
		if !l.empty() {
			b.segs[i] = l.take()
		}
	}
	if b.segs == [2]*segment{} && !final {
		return
	}
	eng.replayCh <- b
	if final {
		close(eng.replayCh)
		<-eng.replayDone
	}
}

// cpuBound is the tick below which the CPU shard may fire: the earliest
// possible memory-side activity — memEarliest or a post already sitting in
// the cpu→mem outbox — plus the mem→cpu floor.
func (eng *shardEngine) cpuBound(memEarliest Tick) Tick {
	if ob := eng.outbox[shardCPU].minWhen; ob < memEarliest {
		memEarliest = ob
	}
	return addSat(memEarliest, eng.quantum)
}

// run is the sharded equivalent of System.Run. The caller's goroutine is the
// coordinator and executes the CPU shard itself.
//
// maxEvents is honored at burst granularity on the CPU shard and at window
// granularity on the memory shard, so under sharding ExitEventLimit may stop
// slightly past the requested count (it is a safety valve, not a precise
// budget; callers needing exactness run serial).
func (eng *shardEngine) run(s *System, limit Tick, maxEvents uint64) (res RunResult) {
	mv := eng.views[shardMem]
	s.startup()
	c0, m0 := s.serviced, mv.serviced
	memJoined := uint64(0) // mv.serviced-m0 as of the last join (race-free copy)

	eng.running = true
	eng.workerBusy = false
	eng.mark = [2]Tick{}
	eng.outbox[shardCPU].minWhen = MaxTick
	eng.outbox[shardMem].minWhen = MaxTick
	if !eng.traceOff {
		eng.replayCh = make(chan replayBatch, 8)
		eng.replayDone = make(chan struct{})
		go eng.replayLoop()
	}
	eng.grantCh = make(chan grant)
	eng.joinCh = make(chan joinMsg, 1)
	go eng.worker()

	defer func() {
		// Runs on clean returns and on propagating panics alike: retire the
		// worker, seal and drain the trace replay, restore bookkeeping.
		if eng.workerBusy {
			<-eng.joinCh // a coordinator panic outranks the worker's result
			eng.workerBusy = false
		}
		close(eng.grantCh)
		eng.flushReplay(true)
		eng.running = false
		res.Events = (s.serviced - c0) + (mv.serviced - m0)
		res.Now = s.queue.Now()
		if n := mv.queue.Now(); n > res.Now {
			res.Now = n
		}
	}()

	cq, mq := s.queue, mv.queue
	for {
		// Coordination point: the worker is idle. Merge both mailboxes, then
		// hand completed trace segments to the replayer.
		eng.deliver(shardMem)
		eng.deliver(shardCPU)
		if !eng.traceOff {
			// Memory-shard mark: future arrivals are posts from CPU-side
			// events at or above the last burst bound (the CPU mark); pending
			// ones are in the queue now.
			m := eng.mark[shardCPU]
			if e := mq.Peek(); e != nil && e.when < m {
				m = e.when
			}
			if m > eng.mark[shardMem] {
				eng.mark[shardMem] = m
			}
			eng.flushReplay(false)
		}

		if maxEvents > 0 && (s.serviced-c0)+memJoined >= maxEvents {
			res.Status = ExitEventLimit
			return
		}

		var memNext, cpuNext Tick
		memHas := false
		if e := mq.Peek(); e != nil {
			memHas, memNext = true, e.when
		}
		cpuHas := false
		if e := cq.Peek(); e != nil {
			cpuHas, cpuNext = true, e.when
		}
		if !memHas && !cpuHas {
			res.Status = ExitQueueEmpty
			return
		}
		if (!memHas || memNext > limit) && (!cpuHas || cpuNext > limit) {
			res.Status = ExitLimit
			return
		}

		// Grant the memory shard its window, if it has eligible work: the
		// horizon is the earliest tick a future arrival could target — the
		// bounce-back path through its own posts (its next event plus the
		// round-trip mem→cpu→mem floor) — capped by the CPU shard's next
		// pending event: any CPU-side event may RequestExit at its tick (in
		// this Run call or a later one with a higher limit), and exit
		// truncation must never find the memory shard past it.
		if memHas && memNext <= limit {
			horizon := addSat(memNext, addSat(eng.quantum, eng.busLook))
			if cpuHas && cpuNext < horizon {
				horizon = cpuNext
			}
			if memNext < horizon {
				eng.grantFloor, eng.grantHorizon = memNext, horizon
				eng.workerBusy = true
				eng.grantCh <- grant{horizon: horizon, limit: limit}
			}
		}

		// Run the CPU burst concurrently with the window. The bound tightens
		// live as the burst posts to memory.
		memEarliest := MaxTick
		if eng.workerBusy {
			memEarliest = eng.grantFloor
		} else if memHas {
			memEarliest = memNext
		}
		exited := false
		var exitKey groupKey
		for {
			e := cq.Peek()
			if e == nil || e.when > limit || e.when >= eng.cpuBound(memEarliest) {
				break
			}
			k := groupKey{when: e.when, prio: e.prio, stamp: e.stamp}
			if eng.dispatchOneCatching(s, e, &res) {
				exited, exitKey = true, k
				break
			}
			if maxEvents > 0 && (s.serviced-c0)+memJoined >= maxEvents {
				break // status set at the top of the next round
			}
		}
		// Publish the CPU replay mark: every CPU-side event below the final
		// live bound has fired, and future ones (local or response-spawned)
		// are at or above it.
		if !exited {
			if b := eng.cpuBound(memEarliest); b > eng.mark[shardCPU] {
				eng.mark[shardCPU] = b
			}
		}

		if eng.workerBusy {
			if eng.joinWorker(&res) {
				return
			}
			memJoined = mv.serviced - m0
		}

		if exited {
			// Exact truncation: the serial run fires, before the exit event
			// E, every memory event strictly below E's full ordering key.
			// The worker has only fired events below the granted horizon,
			// which is <= E's tick (the grant never extends past the CPU
			// shard's next event while it has eligible work), so no overshoot
			// is possible; drain the remainder single-threaded. Posts
			// generated by the drain target at least Quantum past E and are
			// dropped unfired, exactly the events the serial run leaves in
			// its queue at exit.
			eng.deliver(shardCPU)
			for {
				e := mq.Peek()
				if e == nil {
					break
				}
				k := groupKey{when: e.when, prio: e.prio, stamp: e.stamp}
				if !k.less(exitKey) {
					break
				}
				eng.dispatchOne(mv, e)
			}
			eng.mark = [2]Tick{MaxTick, MaxTick}
			return
		}
	}
}
