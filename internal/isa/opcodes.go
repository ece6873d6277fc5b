// Package isa defines KISA, the small 32-bit RISC instruction set executed
// by the g5 guest CPU models: instruction encoding and decoding, the
// architectural execution semantics shared by every CPU model, an assembler
// with labels, and a disassembler.
//
// KISA is deliberately RISC-V-flavoured: 32 integer registers (x0 hardwired
// to zero), 32 float64 registers, fixed 32-bit instruction words, and a
// small machine-mode CSR file sufficient to boot the FS-mode mini-kernel.
package isa

// Op enumerates every KISA opcode.
type Op uint8

// Opcodes. The zero value is OpInvalid so that zeroed memory decodes to an
// illegal instruction.
const (
	OpInvalid Op = iota

	// Integer register-register (format R).
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu
	OpMul
	OpMulh
	OpDiv
	OpDivu
	OpRem
	OpRemu

	// Integer register-immediate (format I).
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpSltiu

	// Upper immediate (format U).
	OpLui
	OpAuipc

	// Loads (format I) and stores (format S).
	OpLb
	OpLbu
	OpLh
	OpLhu
	OpLw
	OpSb
	OpSh
	OpSw
	OpFld // load float64 into f[rd]
	OpFsd // store f[rs2]

	// Branches (format B) and jumps.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal  // format J
	OpJalr // format I

	// Floating point, register-register on f regs (format R).
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFsqrt
	OpFmin
	OpFmax
	OpFabs
	OpFneg
	OpFmv    // f[rd] = f[rs1]
	OpFcvtDW // f[rd] = float64(int32(x[rs1]))
	OpFcvtWD // x[rd] = int32(f[rs1])
	OpFeq    // x[rd] = f[rs1]==f[rs2]
	OpFlt
	OpFle

	// System (format I, imm used as CSR number for CSR ops).
	OpEcall
	OpEbreak
	OpCsrrw // x[rd] = csr; csr = x[rs1]
	OpCsrrs // x[rd] = csr; csr |= x[rs1]
	OpWfi
	OpMret

	opCount // sentinel
)

// Format describes how an instruction word's fields are laid out.
type Format uint8

// Instruction formats.
const (
	FmtR Format = iota // op rd rs1 rs2
	FmtI               // op rd rs1 imm15
	FmtS               // op rs2 rs1 imm15  (stores: rs2 is data)
	FmtB               // op rs1 rs2 imm15  (word offset)
	FmtU               // op rd imm20       (LUI/AUIPC)
	FmtJ               // op rd imm20       (JAL, word offset)
)

// Class buckets instructions by the functional unit they occupy in the
// detailed CPU models.
type Class uint8

// Instruction classes.
const (
	ClassIntAlu Class = iota
	ClassIntMult
	ClassIntDiv
	ClassMemRead
	ClassMemWrite
	ClassBranch
	ClassFloatAdd
	ClassFloatMult
	ClassFloatDiv
	ClassFloatSqrt
	ClassFloatCvt
	ClassSystem
	classCount
)

func (c Class) String() string {
	switch c {
	case ClassIntAlu:
		return "IntAlu"
	case ClassIntMult:
		return "IntMult"
	case ClassIntDiv:
		return "IntDiv"
	case ClassMemRead:
		return "MemRead"
	case ClassMemWrite:
		return "MemWrite"
	case ClassBranch:
		return "Branch"
	case ClassFloatAdd:
		return "FloatAdd"
	case ClassFloatMult:
		return "FloatMult"
	case ClassFloatDiv:
		return "FloatDiv"
	case ClassFloatSqrt:
		return "FloatSqrt"
	case ClassFloatCvt:
		return "FloatCvt"
	case ClassSystem:
		return "System"
	}
	return "Class?"
}

// opInfo is static metadata for one opcode.
type opInfo struct {
	name   string
	format Format
	class  Class

	readsRs1 bool
	readsRs2 bool
	writesRd bool
	fpRs1    bool // rs1 names an f register
	fpRs2    bool
	fpRd     bool
	isLoad   bool
	isStore  bool
	isBranch bool // conditional control flow
	isJump   bool // unconditional control flow
	isSystem bool
	memSize  uint8 // bytes moved for loads/stores
}

var opTable = [opCount]opInfo{
	OpInvalid: {name: "invalid", format: FmtR, class: ClassSystem, isSystem: true},

	OpAdd:  {name: "add", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpSub:  {name: "sub", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpAnd:  {name: "and", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpOr:   {name: "or", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpXor:  {name: "xor", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpSll:  {name: "sll", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpSrl:  {name: "srl", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpSra:  {name: "sra", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpSlt:  {name: "slt", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpSltu: {name: "sltu", format: FmtR, class: ClassIntAlu, readsRs1: true, readsRs2: true, writesRd: true},
	OpMul:  {name: "mul", format: FmtR, class: ClassIntMult, readsRs1: true, readsRs2: true, writesRd: true},
	OpMulh: {name: "mulh", format: FmtR, class: ClassIntMult, readsRs1: true, readsRs2: true, writesRd: true},
	OpDiv:  {name: "div", format: FmtR, class: ClassIntDiv, readsRs1: true, readsRs2: true, writesRd: true},
	OpDivu: {name: "divu", format: FmtR, class: ClassIntDiv, readsRs1: true, readsRs2: true, writesRd: true},
	OpRem:  {name: "rem", format: FmtR, class: ClassIntDiv, readsRs1: true, readsRs2: true, writesRd: true},
	OpRemu: {name: "remu", format: FmtR, class: ClassIntDiv, readsRs1: true, readsRs2: true, writesRd: true},

	OpAddi:  {name: "addi", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpAndi:  {name: "andi", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpOri:   {name: "ori", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpXori:  {name: "xori", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpSlli:  {name: "slli", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpSrli:  {name: "srli", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpSrai:  {name: "srai", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpSlti:  {name: "slti", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},
	OpSltiu: {name: "sltiu", format: FmtI, class: ClassIntAlu, readsRs1: true, writesRd: true},

	OpLui:   {name: "lui", format: FmtU, class: ClassIntAlu, writesRd: true},
	OpAuipc: {name: "auipc", format: FmtU, class: ClassIntAlu, writesRd: true},

	OpLb:  {name: "lb", format: FmtI, class: ClassMemRead, readsRs1: true, writesRd: true, isLoad: true, memSize: 1},
	OpLbu: {name: "lbu", format: FmtI, class: ClassMemRead, readsRs1: true, writesRd: true, isLoad: true, memSize: 1},
	OpLh:  {name: "lh", format: FmtI, class: ClassMemRead, readsRs1: true, writesRd: true, isLoad: true, memSize: 2},
	OpLhu: {name: "lhu", format: FmtI, class: ClassMemRead, readsRs1: true, writesRd: true, isLoad: true, memSize: 2},
	OpLw:  {name: "lw", format: FmtI, class: ClassMemRead, readsRs1: true, writesRd: true, isLoad: true, memSize: 4},
	OpSb:  {name: "sb", format: FmtS, class: ClassMemWrite, readsRs1: true, readsRs2: true, isStore: true, memSize: 1},
	OpSh:  {name: "sh", format: FmtS, class: ClassMemWrite, readsRs1: true, readsRs2: true, isStore: true, memSize: 2},
	OpSw:  {name: "sw", format: FmtS, class: ClassMemWrite, readsRs1: true, readsRs2: true, isStore: true, memSize: 4},
	OpFld: {name: "fld", format: FmtI, class: ClassMemRead, readsRs1: true, writesRd: true, fpRd: true, isLoad: true, memSize: 8},
	OpFsd: {name: "fsd", format: FmtS, class: ClassMemWrite, readsRs1: true, readsRs2: true, fpRs2: true, isStore: true, memSize: 8},

	OpBeq:  {name: "beq", format: FmtB, class: ClassBranch, readsRs1: true, readsRs2: true, isBranch: true},
	OpBne:  {name: "bne", format: FmtB, class: ClassBranch, readsRs1: true, readsRs2: true, isBranch: true},
	OpBlt:  {name: "blt", format: FmtB, class: ClassBranch, readsRs1: true, readsRs2: true, isBranch: true},
	OpBge:  {name: "bge", format: FmtB, class: ClassBranch, readsRs1: true, readsRs2: true, isBranch: true},
	OpBltu: {name: "bltu", format: FmtB, class: ClassBranch, readsRs1: true, readsRs2: true, isBranch: true},
	OpBgeu: {name: "bgeu", format: FmtB, class: ClassBranch, readsRs1: true, readsRs2: true, isBranch: true},
	OpJal:  {name: "jal", format: FmtJ, class: ClassBranch, writesRd: true, isJump: true},
	OpJalr: {name: "jalr", format: FmtI, class: ClassBranch, readsRs1: true, writesRd: true, isJump: true},

	OpFadd:   {name: "fadd", format: FmtR, class: ClassFloatAdd, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true, fpRd: true},
	OpFsub:   {name: "fsub", format: FmtR, class: ClassFloatAdd, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true, fpRd: true},
	OpFmul:   {name: "fmul", format: FmtR, class: ClassFloatMult, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true, fpRd: true},
	OpFdiv:   {name: "fdiv", format: FmtR, class: ClassFloatDiv, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true, fpRd: true},
	OpFsqrt:  {name: "fsqrt", format: FmtR, class: ClassFloatSqrt, readsRs1: true, writesRd: true, fpRs1: true, fpRd: true},
	OpFmin:   {name: "fmin", format: FmtR, class: ClassFloatAdd, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true, fpRd: true},
	OpFmax:   {name: "fmax", format: FmtR, class: ClassFloatAdd, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true, fpRd: true},
	OpFabs:   {name: "fabs", format: FmtR, class: ClassFloatAdd, readsRs1: true, writesRd: true, fpRs1: true, fpRd: true},
	OpFneg:   {name: "fneg", format: FmtR, class: ClassFloatAdd, readsRs1: true, writesRd: true, fpRs1: true, fpRd: true},
	OpFmv:    {name: "fmv", format: FmtR, class: ClassFloatAdd, readsRs1: true, writesRd: true, fpRs1: true, fpRd: true},
	OpFcvtDW: {name: "fcvt.d.w", format: FmtR, class: ClassFloatCvt, readsRs1: true, writesRd: true, fpRd: true},
	OpFcvtWD: {name: "fcvt.w.d", format: FmtR, class: ClassFloatCvt, readsRs1: true, writesRd: true, fpRs1: true},
	OpFeq:    {name: "feq", format: FmtR, class: ClassFloatCvt, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true},
	OpFlt:    {name: "flt", format: FmtR, class: ClassFloatCvt, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true},
	OpFle:    {name: "fle", format: FmtR, class: ClassFloatCvt, readsRs1: true, readsRs2: true, writesRd: true, fpRs1: true, fpRs2: true},

	OpEcall:  {name: "ecall", format: FmtI, class: ClassSystem, isSystem: true},
	OpEbreak: {name: "ebreak", format: FmtI, class: ClassSystem, isSystem: true},
	OpCsrrw:  {name: "csrrw", format: FmtI, class: ClassSystem, readsRs1: true, writesRd: true, isSystem: true},
	OpCsrrs:  {name: "csrrs", format: FmtI, class: ClassSystem, readsRs1: true, writesRd: true, isSystem: true},
	OpWfi:    {name: "wfi", format: FmtI, class: ClassSystem, isSystem: true},
	OpMret:   {name: "mret", format: FmtI, class: ClassSystem, isSystem: true, isJump: true},
}

// NumOps is the number of defined opcodes including OpInvalid.
const NumOps = int(opCount)

// Name returns the assembler mnemonic of the opcode.
func (op Op) Name() string {
	if int(op) >= NumOps {
		return "op?"
	}
	return opTable[op].name
}

// Format returns the encoding format of the opcode.
func (op Op) Format() Format { return opTable[op].format }

// Class returns the functional-unit class of the opcode.
func (op Op) Class() Class { return opTable[op].class }

// Valid reports whether op is a defined opcode other than OpInvalid.
func (op Op) Valid() bool { return op > OpInvalid && int(op) < NumOps }

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(1); int(op) < NumOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// OpByName returns the opcode for an assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// OpMeta is the exported, read-only metadata of one opcode: everything a
// program generator (internal/conformance) needs to build a structurally
// valid instruction without duplicating the opcode table.
type OpMeta struct {
	Op     Op
	Name   string
	Format Format
	Class  Class

	// Operand usage. The Fp* flags mark operands naming f registers.
	ReadsRs1 bool
	ReadsRs2 bool
	WritesRd bool
	FpRs1    bool
	FpRs2    bool
	FpRd     bool

	// Behavioural grouping.
	IsLoad   bool
	IsStore  bool
	IsBranch bool // conditional control flow
	IsJump   bool // unconditional control flow
	IsSystem bool

	// MemSize is the bytes moved by loads/stores (0 otherwise).
	MemSize int
}

// Meta returns the opcode's exported metadata. Meta of an out-of-range
// opcode returns OpInvalid's metadata.
func (op Op) Meta() OpMeta {
	if int(op) >= NumOps {
		op = OpInvalid
	}
	in := &opTable[op]
	return OpMeta{
		Op:       op,
		Name:     in.name,
		Format:   in.format,
		Class:    in.class,
		ReadsRs1: in.readsRs1,
		ReadsRs2: in.readsRs2,
		WritesRd: in.writesRd,
		FpRs1:    in.fpRs1,
		FpRs2:    in.fpRs2,
		FpRd:     in.fpRd,
		IsLoad:   in.isLoad,
		IsStore:  in.isStore,
		IsBranch: in.isBranch,
		IsJump:   in.isJump,
		IsSystem: in.isSystem,
		MemSize:  int(in.memSize),
	}
}

// Opcodes returns every defined opcode except OpInvalid, in numeric order.
func Opcodes() []Op {
	out := make([]Op, 0, NumOps-1)
	for op := Op(1); int(op) < NumOps; op++ {
		out = append(out, op)
	}
	return out
}
