package core

import (
	"encoding/json"
	"fmt"

	"gem5prof/internal/cpu"
	"gem5prof/internal/guest"
	"gem5prof/internal/sim"
)

// Checkpoint is a readable (JSON) snapshot of a quiesced guest, mirroring
// gem5's checkpointing flow that the paper's methodology depends on:
// fast-forward with the Atomic CPU, checkpoint, then restore into any CPU
// model — including on a different host platform.
type Checkpoint struct {
	// Version guards the on-disk format.
	Version int `json:"version"`
	// Tick is the guest time at which the checkpoint was taken.
	Tick sim.Tick `json:"tick"`
	// Insts is the committed instruction count at the checkpoint.
	Insts uint64 `json:"insts"`
	// Workload/Mode/Scale describe what was running (metadata only).
	Workload string `json:"workload"`
	Mode     Mode   `json:"mode"`
	Scale    int    `json:"scale"`
	// Arch is per-core architectural state.
	Arch []cpu.ArchState `json:"arch"`
	// Mem is the physical memory image (touched pages only).
	Mem guest.MemoryImage `json:"mem"`
}

// CheckpointVersion is the current serialization format. Decoding fails
// closed on any other version: forward compatibility is explicitly not
// attempted, because restoring under a mismatched format could silently
// zero-fill state the writer meant to carry.
const CheckpointVersion = 1

// RunFor services events until the guest clock advances by delta ticks (or
// the workload exits). It returns the raw run result so callers can
// distinguish completion from the time limit.
//
// A delta that would overflow the tick counter — including a negative
// duration cast to the unsigned Tick — is clamped to MaxTick, so a huge
// fast-forward request runs the workload out instead of computing a
// wrapped deadline in the past (which the queue's time-runs-backward
// panic would only catch after the fact).
func (g *GuestSystem) RunFor(delta sim.Tick) sim.RunResult {
	now := g.Sys.Now()
	end := now + delta
	if end < now {
		end = sim.MaxTick
	}
	return g.Sys.Run(end, 0)
}

// RunTo services events until the guest clock reaches absolute tick when,
// inclusive: every event scheduled at or before when fires, so a
// checkpoint taken afterwards captures exactly the state a straight run
// has as it leaves that tick. A target at or before Now returns
// immediately with ExitLimit and is not an error.
func (g *GuestSystem) RunTo(when sim.Tick) sim.RunResult {
	return g.Sys.Run(when, 0)
}

// TakeCheckpoint serializes the guest. The guest must be quiesced at an
// instruction boundary, which is guaranteed between events only for the
// Atomic CPU model (gem5 has the same restriction in spirit: simple CPUs
// are the fast-forward/checkpoint vehicles).
func (g *GuestSystem) TakeCheckpoint() (*Checkpoint, error) {
	if g.Cfg.CPU != Atomic {
		return nil, fmt.Errorf("core: checkpoints require the Atomic CPU (got %s)", g.Cfg.CPU)
	}
	if g.Cfg.threaded() {
		// The snapshot captures memory and per-core arch state but not
		// the coherence directory or the sysemu thread table (join
		// values, futex wait queues), so restoring a multicore guest
		// would be silently lossy. Fail loudly instead.
		return nil, fmt.Errorf("core: checkpoints are single-core only (directory and thread state are not captured)")
	}
	for _, c := range g.CPUs {
		if c.Core().Waiting() {
			return nil, fmt.Errorf("core: cannot checkpoint a core parked in WFI")
		}
	}
	ck := &Checkpoint{
		Version:  CheckpointVersion,
		Tick:     g.Sys.Now(),
		Workload: g.Cfg.Workload,
		Mode:     g.Cfg.Mode,
		Scale:    g.Cfg.Scale,
		Mem:      g.Mem.Snapshot(),
	}
	for _, c := range g.CPUs {
		ck.Arch = append(ck.Arch, c.Core().SaveArchState())
		ck.Insts += c.Core().CommittedInsts()
	}
	return ck, nil
}

// Encode renders the checkpoint as (readable) JSON.
func (c *Checkpoint) Encode() ([]byte, error) {
	return json.MarshalIndent(c, "", " ")
}

// DecodeCheckpoint parses an encoded checkpoint. It fails closed: a
// truncated document, a mismatched or future format version, or a memory
// image whose page payloads disagree with their declared sizes all return
// a clear error — never a panic, and never a checkpoint that would
// restore zeroed or partial state.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return &ck, nil
}

// Validate checks everything RestoreGuest needs to rebuild the guest
// faithfully. DecodeCheckpoint applies it to every parsed document, so
// corruption surfaces at the decode boundary, before any state is built.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d unsupported (want %d)", c.Version, CheckpointVersion)
	}
	if len(c.Arch) == 0 {
		return fmt.Errorf("core: checkpoint has no CPU state")
	}
	// Fail closed on implausible documents too: no supported guest exceeds
	// this, and an absurd count usually means corrupted or hostile input.
	if len(c.Arch) > 64 {
		return fmt.Errorf("core: checkpoint claims %d cores (limit 64)", len(c.Arch))
	}
	if c.Mem.Size == 0 {
		return fmt.Errorf("core: checkpoint has no memory image")
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("core: checkpoint memory image: %w", err)
	}
	return nil
}

// RestoreGuest builds a guest from cfg and resumes it from the checkpoint.
// cfg may select a *different* CPU model than the one that took the
// checkpoint (the gem5 fast-forward-then-switch flow) and runs under any
// tracer/host platform. The core count must match.
func RestoreGuest(cfg GuestConfig, ck *Checkpoint, tracer sim.Tracer) (*GuestSystem, error) {
	return restoreGuest(cfg, newExecPlan(SessionConfig{Guest: cfg, Pipeline: PipelineOff}, false), ck, tracer)
}

// restoreGuest is RestoreGuest under an already resolved plan.
func restoreGuest(cfg GuestConfig, plan ExecPlan, ck *Checkpoint, tracer sim.Tracer) (*GuestSystem, error) {
	cfg = cfg.withDefaults()
	if cfg.Cores != len(ck.Arch) {
		return nil, fmt.Errorf("core: checkpoint has %d cores, config wants %d", len(ck.Arch), cfg.Cores)
	}
	// Carry the workload identity so the restored run validates against the
	// same reference checksum.
	if cfg.Workload == "" {
		cfg.Workload = ck.Workload
	}
	if cfg.Scale == 0 {
		cfg.Scale = ck.Scale
	}
	if cfg.Mode == "" {
		cfg.Mode = ck.Mode
	}
	g, _, err := buildGuest(cfg, nil, plan, tracer)
	if err != nil {
		return nil, err
	}
	// Overwrite the freshly loaded image with the checkpointed memory and
	// register state, then start each core at its checkpointed PC (not the
	// workload entry).
	if err := g.Mem.LoadImage(ck.Mem); err != nil {
		return nil, err
	}
	for i, c := range g.CPUs {
		c.Core().LoadArchState(ck.Arch[i])
		c.Start(ck.Arch[i].PC)
	}
	return g, nil
}
