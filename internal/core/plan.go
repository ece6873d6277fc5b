package core

import "fmt"

// ShardMode is the type of GuestConfig.Shards, which nothing reads: every
// guest runs on one event queue. The type remains only because bench/
// compiles against it.
type ShardMode int

// ShardSerial is a ShardMode value that, like every other, changes nothing.
// It remains only because bench/ compiles against it.
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
	// Calendar: the event queues are calendar queues instead of heaps.
	Calendar bool
}

// String renders the plan for logs, e.g. "pipelined=false queue=heap".
func (p ExecPlan) String() string {
	queue := "heap"
	if p.Calendar {
		queue = "calendar"
	}
	return fmt.Sprintf("pipelined=%t queue=%s", p.Pipelined, queue)
}

// newExecPlan resolves the plan of one run; nothing else decides whether a
// run is pipelined or which queue backend it uses. A bare guest
// (BuildGuest, BuildProgram, RestoreGuest) is a session with no host side:
// its callers pass PipelineOff. interval marks an IntervalRunner window. The
// rules:
//
//   - Profile and interval sessions run serially on one goroutine: the
//     function profiler (at every function entry/exit) and the interval
//     runner (at the warmup→measure boundary) read the host machine's clock
//     synchronously mid-run, which a decoupled ring consumer cannot serve.
//   - PipelineOn/PipelineOff are taken as set; PipelineAuto takes the process
//     default (SetDefaultPipeline), which is off unless set to PipelineOn.
//
// No rule looks at the host it runs on: the same config resolves to the
// same plan everywhere.
func newExecPlan(cfg SessionConfig, interval bool) ExecPlan {
	plan := ExecPlan{Calendar: cfg.Guest.CalendarQueue}
	if cfg.Profile || interval {
		return plan
	}
	mode := cfg.Pipeline
	if mode == PipelineAuto {
		mode = DefaultPipeline()
	}
	plan.Pipelined = mode == PipelineOn
	return plan
}
