package core

import "fmt"

// ShardMode is the type of GuestConfig.Shards: 2 or more asks for the
// sharded event-queue engine (sim.System.EnableSharding — DRAM on a worker
// shard, everything else on the caller's goroutine), anything below runs the
// single queue. There is one sharded layout, so every value from 2 up means
// the same thing. Statistics, traces, and reports are bit-identical either
// way.
type ShardMode int

// ShardSerial asks for the single-queue path, as the zero value does.
const ShardSerial ShardMode = 1

// ExecPlan is how one run executes: every decision that changes which code
// runs but not what it computes, resolved once per run by newExecPlan and
// reported on the run's result. Output is byte-identical under every plan,
// which is why the plan appears in no statistic, uarch.Report or rendered
// report.
type ExecPlan struct {
	// Pipelined: the guest + trace synthesis and the uarch.Machine run on
	// two goroutines over the SPSC ring (sessions only).
	Pipelined bool
	// Sharded: the guest's event queue is split in two, DRAM on a worker
	// goroutine.
	Sharded bool
	// Calendar: the event queues are calendar queues instead of heaps.
	Calendar bool
}

// String renders the plan for logs, e.g. "pipelined=false sharded=true queue=heap".
func (p ExecPlan) String() string {
	queue := "heap"
	if p.Calendar {
		queue = "calendar"
	}
	return fmt.Sprintf("pipelined=%t sharded=%t queue=%s", p.Pipelined, p.Sharded, queue)
}

// newExecPlan resolves the plan of one run; nothing else decides whether a
// run is pipelined or sharded or which queue backend it uses. A bare guest
// (BuildGuest, BuildProgram, RestoreGuest) is a session with no host side:
// its callers pass PipelineOff. interval marks an IntervalRunner window. The
// rules:
//
//   - Profile and interval sessions run serially on one goroutine: the
//     function profiler (at every function entry/exit) and the interval
//     runner (at the warmup→measure boundary) read the host machine's clock
//     synchronously mid-run, which neither a decoupled ring consumer nor the
//     sharded engine's deferred trace replay can serve.
//   - The Atomic CPU accesses memory inline and IdealMemory has no hierarchy,
//     so neither has DRAM events to put on a second shard: unsharded.
//   - Otherwise Shards >= 2 means sharded.
//   - PipelineOn/PipelineOff are taken as set; PipelineAuto takes the process
//     default (SetDefaultPipeline), which is off unless set to PipelineOn.
//
// No rule looks at the host it runs on: the same config resolves to the
// same plan everywhere.
func newExecPlan(cfg SessionConfig, interval bool) ExecPlan {
	g := cfg.Guest.withDefaults()
	plan := ExecPlan{Calendar: g.CalendarQueue}
	if cfg.Profile || interval {
		return plan
	}
	plan.Sharded = g.Shards >= 2 && g.CPU != Atomic && !g.IdealMemory
	mode := cfg.Pipeline
	if mode == PipelineAuto {
		mode = DefaultPipeline()
	}
	plan.Pipelined = mode == PipelineOn
	return plan
}
