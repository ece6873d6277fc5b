// Package sysemu provides the two execution environments of the g5
// simulator: system-call emulation (SE mode), where ECALLs are serviced by
// the host, and full-system support (FS mode) with memory-mapped devices and
// machine-mode traps delivered to a guest mini-kernel.
package sysemu

import (
	"bytes"
	"fmt"

	"gem5prof/internal/cpu"
	"gem5prof/internal/guest"
	"gem5prof/internal/sim"
)

// SE-mode system call numbers (a7), following the RISC-V Linux convention
// used by the toolchains in the paper.
const (
	SysExit         = 93
	SysWrite        = 64
	SysRead         = 63
	SysBrk          = 214
	SysMmap         = 222
	SysClockGetTime = 113
	SysGetPID       = 172
)

// SEEnv is the system-call emulation environment: the guest's OS interface
// is serviced directly by the simulator, as in gem5's SE mode.
type SEEnv struct {
	sys *sim.System
	mem *guest.Memory

	brk    uint32
	mmapAt uint32

	stdout bytes.Buffer
	stdin  *bytes.Reader

	fnSyscall sim.FuncID

	numWrites *sim.Counter

	// threads is the multicore syscall surface; nil until AttachCores is
	// called with more than one core, so single-core guests are untouched.
	threads *threadState
}

// NewSEEnv builds an SE environment over the guest memory. brkBase is the
// initial program break (start of the emulated heap); mmapBase is where
// anonymous mappings are placed.
func NewSEEnv(sys *sim.System, m *guest.Memory, brkBase, mmapBase uint32) *SEEnv {
	e := &SEEnv{
		sys:    sys,
		mem:    m,
		brk:    brkBase,
		mmapAt: mmapBase,
		stdin:  bytes.NewReader(nil),
	}
	e.fnSyscall = sys.Tracer().RegisterFunc("SEWorkload::syscall", 5200, sim.FuncVirtual|sim.FuncCold)
	e.numWrites = sys.Stats().Counter("se.syscallWrites", "bytes written via sys_write")
	return e
}

// SetStdin provides input for SysRead.
func (e *SEEnv) SetStdin(data []byte) { e.stdin = bytes.NewReader(data) }

// Stdout returns everything the workload has written to fds 1 and 2.
func (e *SEEnv) Stdout() string { return e.stdout.String() }

// Ecall implements cpu.Env.
func (e *SEEnv) Ecall(c *cpu.Core) {
	e.sys.TraceCall(e.fnSyscall)
	num := c.ReadReg(17) // a7
	a0 := c.ReadReg(10)
	a1 := c.ReadReg(11)
	a2 := c.ReadReg(12)
	switch num {
	case SysExit:
		c.Halt()
		e.sys.RequestExit(fmt.Sprintf("SE exit(%d)", int32(a0)), int(a0))

	case SysWrite:
		if a0 != 1 && a0 != 2 {
			c.WriteReg(10, ^uint32(8)) // -EBADF
			return
		}
		buf := make([]byte, a2)
		if err := e.mem.ReadBytes(a1, buf); err != nil {
			c.WriteReg(10, ^uint32(13)) // -EFAULT
			return
		}
		e.stdout.Write(buf)
		e.numWrites.Addn(uint64(a2))
		c.WriteReg(10, a2)

	case SysRead:
		if a0 != 0 {
			c.WriteReg(10, ^uint32(8))
			return
		}
		buf := make([]byte, a2)
		n, _ := e.stdin.Read(buf)
		if err := e.mem.WriteBytes(a1, buf[:n]); err != nil {
			c.WriteReg(10, ^uint32(13))
			return
		}
		c.WriteReg(10, uint32(n))

	case SysBrk:
		if a0 != 0 && a0 >= e.brk && a0 < e.mem.Size() {
			e.brk = a0
		}
		c.WriteReg(10, e.brk)

	case SysMmap:
		// Anonymous mapping: bump allocate, page aligned.
		length := (a1 + guest.PageBytes - 1) &^ (guest.PageBytes - 1)
		if uint64(e.mmapAt)+uint64(length) > uint64(e.mem.Size()) {
			c.WriteReg(10, ^uint32(11)) // -ENOMEM
			return
		}
		addr := e.mmapAt
		e.mmapAt += length
		c.WriteReg(10, addr)

	case SysClockGetTime:
		// Returns nanoseconds of simulated time in (a0<<32 | a1) style:
		// write a timespec {sec, nsec} to the pointer in a1.
		ns := uint64(e.sys.Now() / sim.Nanosecond)
		_ = e.mem.Write(a1, 4, ns/1_000_000_000)
		_ = e.mem.Write(a1+4, 4, ns%1_000_000_000)
		c.WriteReg(10, 0)

	case SysGetPID:
		c.WriteReg(10, 1)

	case SysSpawn, SysJoin, SysThreadExit, SysFutexWait, SysFutexWake,
		SysAtomicAdd, SysAtomicCAS, SysNumCores:
		c.WriteReg(10, e.threadCall(c, num, a0, a1, a2))

	default:
		c.WriteReg(10, ^uint32(37)) // -ENOSYS
	}
}

// Ebreak implements cpu.Env: bare exit with code a0.
func (e *SEEnv) Ebreak(c *cpu.Core) {
	c.Halt()
	e.sys.RequestExit("SE ebreak", int(c.ReadReg(10)))
}
