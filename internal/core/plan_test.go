package core

import (
	"testing"

	"gem5prof/internal/platform"
)

// TestExecPlan pins every rule of newExecPlan, the one function that decides
// how a run executes.
func TestExecPlan(t *testing.T) {
	defer SetDefaultPipeline(PipelineAuto)

	timing := func(edit func(*SessionConfig)) SessionConfig {
		sc := SessionConfig{Guest: GuestConfig{CPU: Timing}}
		edit(&sc)
		return sc
	}
	plain := timing(func(*SessionConfig) {})
	on := func(sc *SessionConfig) { sc.Pipeline = PipelineOn }
	cases := []struct {
		name     string
		cfg      SessionConfig
		def      PipelineMode // process default while resolving
		interval bool
		want     ExecPlan
	}{
		{"zero config", SessionConfig{}, PipelineAuto, false, ExecPlan{}},
		{"pipelined", timing(on), PipelineAuto, false, ExecPlan{Pipelined: true}},
		{"calendar queue", timing(func(sc *SessionConfig) { sc.Guest.CalendarQueue = true }), PipelineAuto, false,
			ExecPlan{Calendar: true}},

		// The machine's clock is read synchronously mid-run.
		{"profile is serial and unpipelined", timing(func(sc *SessionConfig) { on(sc); sc.Profile = true }),
			PipelineOn, false, ExecPlan{}},
		{"interval session is serial", timing(on), PipelineOn, true, ExecPlan{}},
		{"interval keeps the queue backend", timing(func(sc *SessionConfig) { on(sc); sc.Guest.CalendarQueue = true }),
			PipelineAuto, true, ExecPlan{Calendar: true}},
		{"atomic still pipelines", SessionConfig{Guest: GuestConfig{CPU: Atomic}, Pipeline: PipelineOn},
			PipelineAuto, false, ExecPlan{Pipelined: true}},

		// PipelineAuto takes the process default; unset means off.
		{"auto, default unset", plain, PipelineAuto, false, ExecPlan{}},
		{"auto, default on", plain, PipelineOn, false, ExecPlan{Pipelined: true}},
		{"auto, default off", plain, PipelineOff, false, ExecPlan{}},
		{"on beats default off", timing(on), PipelineOff, false, ExecPlan{Pipelined: true}},
	}
	for _, c := range cases {
		SetDefaultPipeline(c.def)
		if got := newExecPlan(c.cfg, c.interval); got != c.want {
			t.Errorf("%s: plan %v, want %v", c.name, got, c.want)
		}
	}

	// Resetting the default to auto restores off.
	SetDefaultPipeline(PipelineOn)
	SetDefaultPipeline(PipelineAuto)
	if got := newExecPlan(plain, false); got.Pipelined {
		t.Errorf("after SetDefaultPipeline(PipelineAuto): plan %v, want unpipelined", got)
	}

	if got, want := (ExecPlan{Calendar: true}).String(), "pipelined=false queue=calendar"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestPlanOnResults: every entry point reports the plan it ran under.
func TestPlanOnResults(t *testing.T) {
	sc := SessionConfig{
		Guest:    GuestConfig{CPU: Timing, Mode: SE, Workload: "sieve", Scale: 512},
		Host:     platform.IntelXeon(),
		Pipeline: PipelineOn,
	}
	res, err := RunSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ExecPlan{Pipelined: true}); res.Plan != want || res.Guest.Plan != want {
		t.Errorf("RunSession: plan %v (guest %v), want %v", res.Plan, res.Guest.Plan, want)
	}
	r := NewIntervalRunner([]SessionConfig{sc})
	defer r.Close()
	ivrs, err := r.Run(nil, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ExecPlan{}); len(ivrs) != 1 || r.cs.plan != want || r.cs.guest.plan != want {
		t.Errorf("interval session: plan %v (guest %v), want %v", r.cs.plan, r.cs.guest.plan, want)
	}
}
