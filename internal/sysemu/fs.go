package sysemu

import (
	"gem5prof/internal/cpu"
	"gem5prof/internal/guest"
	"gem5prof/internal/sim"
)

// FSEnv is the full-system environment: ECALL traps into the guest kernel's
// machine-mode handler (via mtvec) instead of being serviced by the host.
type FSEnv struct {
	sys    *sim.System
	fnTrap sim.FuncID
}

// NewFSEnv builds an FS environment.
func NewFSEnv(sys *sim.System) *FSEnv {
	return &FSEnv{
		sys:    sys,
		fnTrap: sys.Tracer().RegisterFunc("FSWorkload::deliverTrap", 3100, sim.FuncVirtual|sim.FuncCold),
	}
}

// Ecall implements cpu.Env: deliver a machine-mode trap to the guest kernel.
func (e *FSEnv) Ecall(c *cpu.Core) {
	e.sys.TraceCall(e.fnTrap)
	c.Trap(cpu.CauseEcall, c.PC())
}

// Ebreak implements cpu.Env: in FS mode EBREAK acts as a firmware-level
// emergency exit (a guest bug escape hatch).
func (e *FSEnv) Ebreak(c *cpu.Core) {
	c.Halt()
	e.sys.RequestExit("FS ebreak", int(c.ReadReg(10)))
}

// Platform bundles the FS-mode machine: MMIO memory, devices, and the trap
// environment. It mirrors the VExpress-ish platform g5's FS kernel targets.
type Platform struct {
	Mem      *MMIOMem
	UART     *UART
	Timer    *Timer
	Poweroff *Poweroff
	Env      *FSEnv
}

// NewPlatform wires the standard device set over RAM. The timer interrupts
// sink (normally CPU 0's core).
func NewPlatform(sys *sim.System, ram *guest.Memory, sink InterruptSink) *Platform {
	p := &Platform{
		Mem: NewMMIOMem(sys, ram),
		Env: NewFSEnv(sys),
	}
	p.UART = NewUART(sys, "uart0", UARTBase)
	p.Timer = NewTimer(sys, "timer0", TimerBase, sink)
	p.Poweroff = NewPoweroff(sys, "poweroff0", PoweroffBase)
	p.Mem.Attach(p.UART)
	p.Mem.Attach(p.Timer)
	p.Mem.Attach(p.Poweroff)
	return p
}

// LateBindSink lets the platform be built before the CPU exists: the timer's
// sink is replaced once the core is constructed.
type LateBindSink struct{ Sink InterruptSink }

// RaiseInterrupt implements InterruptSink.
func (l *LateBindSink) RaiseInterrupt() {
	if l.Sink != nil {
		l.Sink.RaiseInterrupt()
	}
}

// ClearInterrupt implements InterruptSink.
func (l *LateBindSink) ClearInterrupt() {
	if l.Sink != nil {
		l.Sink.ClearInterrupt()
	}
}
