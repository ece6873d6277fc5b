package sim

// Queue is the event-queue backend interface (stubbed for shardpost).
type Queue interface {
	Schedule(e *Event, when Tick)
	Reschedule(e *Event, when Tick)
}

// HeapQueue is the binary-heap backend.
type HeapQueue struct{}

// Schedule enqueues e at absolute tick when.
func (q *HeapQueue) Schedule(e *Event, when Tick) {}

// Reschedule moves e to absolute tick when.
func (q *HeapQueue) Reschedule(e *Event, when Tick) {}

// CalendarQueue is the calendar backend.
type CalendarQueue struct{}

// Schedule enqueues e at absolute tick when.
func (q *CalendarQueue) Schedule(e *Event, when Tick) {}

// Reschedule moves e to absolute tick when.
func (q *CalendarQueue) Reschedule(e *Event, when Tick) {}

// ShardConfig configures sharded execution.
type ShardConfig struct {
	Quantum      Tick
	BusLookahead Tick
	NewQueue     func() Queue
}

// QuantumFor blesses a cross-domain latency as a barrier quantum.
func QuantumFor(minLatency Tick) Tick { return minLatency }

// EnableSharding switches the system to the sharded engine.
func (s *System) EnableSharding(cfg ShardConfig) {}

// Queue exposes the backend (test/debug surface).
func (s *System) Queue() Queue { return &HeapQueue{} }

// Domain identifies one shard domain.
type Domain uint8

// Shard domains: the memory side runs on the worker goroutine, everything
// else on the coordinator.
const (
	DomainCPU Domain = iota
	DomainMem
	DomainDev
)
