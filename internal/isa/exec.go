package isa

import (
	"fmt"
	"math"
)

// Regs is the architectural register file: 32 integer and 32 float
// registers. The executor indexes it directly, so a register access costs an
// array index, not a call. x0 reads zero because nothing writes X[0]: SetX
// drops writes to register 0, and whoever loads a file from outside (a
// checkpoint) must zero X[0] itself. Register numbers are not masked, so an
// out-of-range one panics rather than aliasing another register.
type Regs struct {
	X [32]uint32
	F [32]float64
}

// SetX sets integer register r; a write to register 0 is dropped.
func (rf *Regs) SetX(r uint8, v uint32) {
	if r != 0 {
		rf.X[r] = v
	}
}

// Context is the architectural state the executor operates on beyond the
// register file and the pc: memory, CSRs and the environment. Each CPU model
// provides an implementation; the semantics in this file are shared so that
// every model retires bit-identical results. Registers are not reached
// through it: Execute asks once for the register file and indexes it.
type Context interface {
	// Regs returns the register file, which Execute reads and writes in place.
	Regs() *Regs
	// ReadMem loads size bytes at addr (zero-extended into the result).
	ReadMem(addr uint32, size int) (uint64, error)
	// WriteMem stores the low size bytes of v at addr.
	WriteMem(addr uint32, size int, v uint64) error
	// ReadCSR returns machine CSR num.
	ReadCSR(num uint32) uint32
	// WriteCSR sets machine CSR num.
	WriteCSR(num uint32, v uint32)
	// Ecall handles an environment call (SE syscall or FS trap).
	Ecall()
	// Ebreak handles a breakpoint (workload exit in bare-metal programs).
	Ebreak()
	// Wfi handles wait-for-interrupt.
	Wfi()
	// Mret returns the PC to resume at after a machine-mode trap return.
	Mret() uint32
}

// Outcome reports the side channel of one executed instruction, used by the
// CPU models for PC redirection and pipeline bookkeeping.
type Outcome struct {
	// ControlTaken is true when the PC must be redirected to ControlTarget.
	ControlTaken  bool
	ControlTarget uint32
	// HasMem is true for loads and stores; MemAddr is the effective address.
	HasMem  bool
	MemAddr uint32
}

// NextPC returns the address of the next instruction given the outcome.
func (o Outcome) NextPC(pc uint32) uint32 {
	if o.ControlTaken {
		return o.ControlTarget
	}
	return pc + InstBytes
}

// EffAddr computes the effective address of a load or store without
// executing it. It panics if in is not a memory instruction.
func EffAddr(in Inst, rf *Regs) uint32 {
	if !in.IsMem() {
		panic("isa: EffAddr on non-memory instruction " + in.Op.Name())
	}
	return rf.X[in.Rs1] + uint32(in.Imm)
}

// StoreData returns the register value a store writes to memory.
func StoreData(in Inst, rf *Regs) uint64 {
	switch in.Op {
	case OpSb, OpSh, OpSw:
		return uint64(rf.X[in.Rs2])
	case OpFsd:
		return math.Float64bits(rf.F[in.Rs2])
	}
	panic("isa: StoreData on non-store " + in.Op.Name())
}

// CompleteLoad writes loaded data into the destination register, applying
// size/sign conversion.
func CompleteLoad(in Inst, rf *Regs, data uint64) {
	switch in.Op {
	case OpLb:
		rf.SetX(in.Rd, uint32(int32(int8(data))))
	case OpLbu:
		rf.SetX(in.Rd, uint32(data&0xff))
	case OpLh:
		rf.SetX(in.Rd, uint32(int32(int16(data))))
	case OpLhu:
		rf.SetX(in.Rd, uint32(data&0xffff))
	case OpLw:
		rf.SetX(in.Rd, uint32(data))
	case OpFld:
		rf.F[in.Rd] = math.Float64frombits(data)
	default:
		panic("isa: CompleteLoad on non-load " + in.Op.Name())
	}
}

// Execute runs the instruction at pc to architectural completion against
// ctx, including any memory access (atomic semantics). The pc itself is not
// advanced; callers use Outcome.NextPC.
//
// The register file is fetched once and indexed directly. Binding its
// accessors to local function values instead (r := rf.x) would make every
// register access an indirect call again, which is what the file replaced.
func Execute(in Inst, pc uint32, ctx Context) (Outcome, error) {
	var out Outcome
	rf := ctx.Regs()
	x := &rf.X
	f := &rf.F

	switch in.Op {
	// Integer ALU.
	case OpAdd:
		rf.SetX(in.Rd, x[in.Rs1]+x[in.Rs2])
	case OpSub:
		rf.SetX(in.Rd, x[in.Rs1]-x[in.Rs2])
	case OpAnd:
		rf.SetX(in.Rd, x[in.Rs1]&x[in.Rs2])
	case OpOr:
		rf.SetX(in.Rd, x[in.Rs1]|x[in.Rs2])
	case OpXor:
		rf.SetX(in.Rd, x[in.Rs1]^x[in.Rs2])
	case OpSll:
		rf.SetX(in.Rd, x[in.Rs1]<<(x[in.Rs2]&31))
	case OpSrl:
		rf.SetX(in.Rd, x[in.Rs1]>>(x[in.Rs2]&31))
	case OpSra:
		rf.SetX(in.Rd, uint32(int32(x[in.Rs1])>>(x[in.Rs2]&31)))
	case OpSlt:
		rf.SetX(in.Rd, b2u(int32(x[in.Rs1]) < int32(x[in.Rs2])))
	case OpSltu:
		rf.SetX(in.Rd, b2u(x[in.Rs1] < x[in.Rs2]))
	case OpMul:
		rf.SetX(in.Rd, x[in.Rs1]*x[in.Rs2])
	case OpMulh:
		rf.SetX(in.Rd, uint32(uint64(int64(int32(x[in.Rs1]))*int64(int32(x[in.Rs2])))>>32))
	case OpDiv:
		rf.SetX(in.Rd, divS(int32(x[in.Rs1]), int32(x[in.Rs2])))
	case OpDivu:
		rf.SetX(in.Rd, divU(x[in.Rs1], x[in.Rs2]))
	case OpRem:
		rf.SetX(in.Rd, remS(int32(x[in.Rs1]), int32(x[in.Rs2])))
	case OpRemu:
		rf.SetX(in.Rd, remU(x[in.Rs1], x[in.Rs2]))

	// Immediate ALU.
	case OpAddi:
		rf.SetX(in.Rd, x[in.Rs1]+uint32(in.Imm))
	case OpAndi:
		rf.SetX(in.Rd, x[in.Rs1]&uint32(in.Imm))
	case OpOri:
		rf.SetX(in.Rd, x[in.Rs1]|uint32(in.Imm))
	case OpXori:
		rf.SetX(in.Rd, x[in.Rs1]^uint32(in.Imm))
	case OpSlli:
		rf.SetX(in.Rd, x[in.Rs1]<<(uint32(in.Imm)&31))
	case OpSrli:
		rf.SetX(in.Rd, x[in.Rs1]>>(uint32(in.Imm)&31))
	case OpSrai:
		rf.SetX(in.Rd, uint32(int32(x[in.Rs1])>>(uint32(in.Imm)&31)))
	case OpSlti:
		rf.SetX(in.Rd, b2u(int32(x[in.Rs1]) < in.Imm))
	case OpSltiu:
		rf.SetX(in.Rd, b2u(x[in.Rs1] < uint32(in.Imm)))
	case OpLui:
		rf.SetX(in.Rd, uint32(in.Imm)<<12)
	case OpAuipc:
		rf.SetX(in.Rd, pc+uint32(in.Imm)<<12)

	// Memory.
	case OpLb, OpLbu, OpLh, OpLhu, OpLw, OpFld:
		addr := EffAddr(in, rf)
		out.HasMem, out.MemAddr = true, addr
		data, err := ctx.ReadMem(addr, in.MemSize())
		if err != nil {
			return out, err
		}
		CompleteLoad(in, rf, data)
	case OpSb, OpSh, OpSw, OpFsd:
		addr := EffAddr(in, rf)
		out.HasMem, out.MemAddr = true, addr
		if err := ctx.WriteMem(addr, in.MemSize(), StoreData(in, rf)); err != nil {
			return out, err
		}

	// Control.
	case OpBeq:
		out = branch(pc, in.Imm, x[in.Rs1] == x[in.Rs2])
	case OpBne:
		out = branch(pc, in.Imm, x[in.Rs1] != x[in.Rs2])
	case OpBlt:
		out = branch(pc, in.Imm, int32(x[in.Rs1]) < int32(x[in.Rs2]))
	case OpBge:
		out = branch(pc, in.Imm, int32(x[in.Rs1]) >= int32(x[in.Rs2]))
	case OpBltu:
		out = branch(pc, in.Imm, x[in.Rs1] < x[in.Rs2])
	case OpBgeu:
		out = branch(pc, in.Imm, x[in.Rs1] >= x[in.Rs2])
	case OpJal:
		rf.SetX(in.Rd, pc+InstBytes)
		out.ControlTaken = true
		out.ControlTarget = pc + uint32(in.Imm)*InstBytes
	case OpJalr:
		target := (x[in.Rs1] + uint32(in.Imm)) &^ 3
		rf.SetX(in.Rd, pc+InstBytes)
		out.ControlTaken = true
		out.ControlTarget = target

	// Floating point.
	case OpFadd:
		f[in.Rd] = f[in.Rs1] + f[in.Rs2]
	case OpFsub:
		f[in.Rd] = f[in.Rs1] - f[in.Rs2]
	case OpFmul:
		f[in.Rd] = f[in.Rs1] * f[in.Rs2]
	case OpFdiv:
		f[in.Rd] = f[in.Rs1] / f[in.Rs2]
	case OpFsqrt:
		f[in.Rd] = math.Sqrt(f[in.Rs1])
	case OpFmin:
		f[in.Rd] = math.Min(f[in.Rs1], f[in.Rs2])
	case OpFmax:
		f[in.Rd] = math.Max(f[in.Rs1], f[in.Rs2])
	case OpFabs:
		f[in.Rd] = math.Abs(f[in.Rs1])
	case OpFneg:
		f[in.Rd] = -f[in.Rs1]
	case OpFmv:
		f[in.Rd] = f[in.Rs1]
	case OpFcvtDW:
		f[in.Rd] = float64(int32(x[in.Rs1]))
	case OpFcvtWD:
		rf.SetX(in.Rd, uint32(int32(f[in.Rs1])))
	case OpFeq:
		rf.SetX(in.Rd, b2u(f[in.Rs1] == f[in.Rs2]))
	case OpFlt:
		rf.SetX(in.Rd, b2u(f[in.Rs1] < f[in.Rs2]))
	case OpFle:
		rf.SetX(in.Rd, b2u(f[in.Rs1] <= f[in.Rs2]))

	// System.
	case OpEcall:
		ctx.Ecall()
	case OpEbreak:
		ctx.Ebreak()
	case OpCsrrw:
		old := ctx.ReadCSR(uint32(in.Imm) & 0x7fff)
		ctx.WriteCSR(uint32(in.Imm)&0x7fff, x[in.Rs1])
		rf.SetX(in.Rd, old)
	case OpCsrrs:
		old := ctx.ReadCSR(uint32(in.Imm) & 0x7fff)
		if in.Rs1 != 0 {
			ctx.WriteCSR(uint32(in.Imm)&0x7fff, old|x[in.Rs1])
		}
		rf.SetX(in.Rd, old)
	case OpWfi:
		ctx.Wfi()
	case OpMret:
		out.ControlTaken = true
		out.ControlTarget = ctx.Mret()

	default:
		return out, fmt.Errorf("isa: illegal instruction %#x at pc %#x", uint8(in.Op), pc)
	}
	return out, nil
}

func branch(pc uint32, imm int32, taken bool) Outcome {
	return Outcome{ControlTaken: taken, ControlTarget: pc + uint32(imm)*InstBytes}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divS(a, b int32) uint32 {
	switch {
	case b == 0:
		return ^uint32(0)
	case a == math.MinInt32 && b == -1:
		return uint32(a)
	default:
		return uint32(a / b)
	}
}

func divU(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	return a / b
}

func remS(a, b int32) uint32 {
	switch {
	case b == 0:
		return uint32(a)
	case a == math.MinInt32 && b == -1:
		return 0
	default:
		return uint32(a % b)
	}
}

func remU(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}
