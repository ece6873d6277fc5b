package mem

import "gem5prof/internal/sim"

// BusConfig sets the timing of a shared system bus / crossbar.
type BusConfig struct {
	Name string
	// Latency is the fixed arbitration + wire latency per transaction.
	Latency sim.Tick
	// TicksPerByte sets the bandwidth; a transaction of N bytes occupies the
	// bus for N*TicksPerByte ticks.
	TicksPerByte sim.Tick
}

// Bus serializes transactions from any number of upstream ports onto one
// downstream port, modeling arbitration latency and finite bandwidth.
type Bus struct {
	sys  *sim.System
	cfg  BusConfig
	next Port

	busyUntil sim.Tick

	nameFwd   string
	fnForward sim.FuncID

	transactions *sim.Counter
	bytesMoved   *sim.Counter
	waitTicks    *sim.Counter
}

// NewBus builds a bus in sys in front of next.
func NewBus(sys *sim.System, cfg BusConfig, next Port) *Bus {
	if next == nil {
		panic("mem: bus needs a downstream port")
	}
	b := &Bus{sys: sys, cfg: cfg, next: next, nameFwd: cfg.Name + ".fwd"}
	b.fnForward = sys.Tracer().RegisterFunc(cfg.Name+"::recvTimingReq", 800, sim.FuncVirtual)
	st := sys.Stats()
	b.transactions = st.Counter(cfg.Name+".transactions", "bus transactions")
	b.bytesMoved = st.Counter(cfg.Name+".bytes", "bytes transferred")
	b.waitTicks = st.Counter(cfg.Name+".waitTicks", "ticks spent waiting for the bus")
	sys.Register(b)
	return b
}

// Name implements sim.SimObject.
func (b *Bus) Name() string { return b.cfg.Name }

// occupancy returns how long a transaction of size bytes holds the bus.
func (b *Bus) occupancy(size uint8) sim.Tick {
	return sim.Tick(size) * b.cfg.TicksPerByte
}

// AtomicLatency implements Port. Atomic mode charges latency and occupancy
// but does not model contention (matching gem5's atomic crossbar).
func (b *Bus) AtomicLatency(acc Access) sim.Tick {
	b.sys.TraceCall(b.fnForward)
	b.account(acc)
	return b.cfg.Latency + b.occupancy(acc.Size) + b.next.AtomicLatency(acc)
}

// SendTiming implements Port.
func (b *Bus) SendTiming(acc Access, done func()) {
	b.sys.TraceCall(b.fnForward)
	b.account(acc)
	now := b.sys.Now()
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.waitTicks.Addn(uint64(start - now))
	b.busyUntil = start + b.occupancy(acc.Size)
	delay := (start - now) + b.cfg.Latency + b.occupancy(acc.Size)
	b.sys.OneShot(b.nameFwd, b.fnForward, delay, func() {
		b.next.SendTiming(acc, done)
	})
}

func (b *Bus) account(acc Access) {
	b.transactions.Inc()
	b.bytesMoved.Addn(uint64(acc.Size))
}

// BytesMoved returns the total traffic through the bus.
func (b *Bus) BytesMoved() uint64 { return b.bytesMoved.Count() }
