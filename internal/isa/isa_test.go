package isa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeCtx is a minimal Context backed by a register file and a sparse
// memory map, used to test the executor in isolation.
type fakeCtx struct {
	rf   Regs
	pc   uint32
	mem  map[uint32]byte
	csrs map[uint32]uint32

	ecalls, ebreaks, wfis int
	mretTarget            uint32
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{mem: make(map[uint32]byte), csrs: make(map[uint32]uint32)}
}

func (c *fakeCtx) Regs() *Regs { return &c.rf }
func (c *fakeCtx) ReadMem(addr uint32, size int) (uint64, error) {
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(c.mem[addr+uint32(i)])
	}
	return v, nil
}
func (c *fakeCtx) WriteMem(addr uint32, size int, v uint64) error {
	for i := 0; i < size; i++ {
		c.mem[addr+uint32(i)] = byte(v >> (8 * i))
	}
	return nil
}
func (c *fakeCtx) ReadCSR(num uint32) uint32     { return c.csrs[num] }
func (c *fakeCtx) WriteCSR(num uint32, v uint32) { c.csrs[num] = v }
func (c *fakeCtx) Ecall()                        { c.ecalls++ }
func (c *fakeCtx) Ebreak()                       { c.ebreaks++ }
func (c *fakeCtx) Wfi()                          { c.wfis++ }
func (c *fakeCtx) Mret() uint32                  { return c.mretTarget }

func exec(t *testing.T, c *fakeCtx, in Inst) Outcome {
	t.Helper()
	out, err := Execute(in, c.pc, c)
	if err != nil {
		t.Fatalf("Execute(%v): %v", in, err)
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Property: every valid instruction survives encode→decode unchanged.
	rng := rand.New(rand.NewSource(7))
	gen := func() Inst {
		op := Op(1 + rng.Intn(NumOps-1))
		in := Inst{Op: op}
		switch op.Format() {
		case FmtR:
			in.Rd = uint8(rng.Intn(32))
			in.Rs1 = uint8(rng.Intn(32))
			in.Rs2 = uint8(rng.Intn(32))
		case FmtI:
			in.Rd = uint8(rng.Intn(32))
			in.Rs1 = uint8(rng.Intn(32))
			in.Imm = int32(rng.Intn(MaxImm15-MinImm15+1)) + MinImm15
		case FmtS, FmtB:
			in.Rs1 = uint8(rng.Intn(32))
			in.Rs2 = uint8(rng.Intn(32))
			in.Imm = int32(rng.Intn(MaxImm15-MinImm15+1)) + MinImm15
			if op.Format() == FmtS {
				in.Rs2, in.Rs1 = in.Rs1, in.Rs2
			}
		case FmtU, FmtJ:
			in.Rd = uint8(rng.Intn(32))
			in.Imm = int32(rng.Intn(MaxImm20-MinImm20+1)) + MinImm20
		}
		return in
	}
	for i := 0; i < 5000; i++ {
		in := gen()
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", in, err)
		}
		got := Decode(w)
		if got != in {
			t.Fatalf("round trip: in=%+v got=%+v word=%#x", in, got, w)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	// Property: Decode never panics, and invalid opcodes yield OpInvalid.
	f := func(w uint32) bool {
		in := Decode(Word(w))
		op := Op(w >> opShift)
		if int(op) >= NumOps {
			return in.Op == OpInvalid
		}
		return in.Op == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Decode(0).Op != OpInvalid {
		t.Fatal("zero word should decode to OpInvalid")
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []Inst{
		{Op: OpInvalid},
		{Op: opCount},
		{Op: OpAdd, Rd: 32},
		{Op: OpAdd, Imm: 1},
		{Op: OpAddi, Imm: MaxImm15 + 1},
		{Op: OpAddi, Imm: MinImm15 - 1},
		{Op: OpJal, Imm: MaxImm20 + 1},
		{Op: OpSw, Imm: MinImm15 - 1},
		{Op: OpBeq, Imm: MaxImm15 + 1},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", in)
		}
	}
}

func TestIntegerALU(t *testing.T) {
	c := newFakeCtx()
	c.rf.X[1] = 7
	c.rf.X[2] = 3
	cases := []struct {
		op   Op
		want uint32
	}{
		{OpAdd, 10}, {OpSub, 4}, {OpAnd, 3}, {OpOr, 7}, {OpXor, 4},
		{OpSll, 56}, {OpSrl, 0}, {OpSlt, 0}, {OpSltu, 0},
		{OpMul, 21}, {OpDiv, 2}, {OpRem, 1},
	}
	for _, tc := range cases {
		exec(t, c, Inst{Op: tc.op, Rd: 3, Rs1: 1, Rs2: 2})
		if c.rf.X[3] != tc.want {
			t.Errorf("%s: got %d, want %d", tc.op.Name(), c.rf.X[3], tc.want)
		}
	}
	// Signed right shift.
	c.rf.X[1] = 0x8000_0000
	c.rf.X[2] = 4
	exec(t, c, Inst{Op: OpSra, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != 0xF800_0000 {
		t.Errorf("sra: got %#x", c.rf.X[3])
	}
	// MULH of large values.
	c.rf.X[1] = 0x7fff_ffff
	c.rf.X[2] = 2
	exec(t, c, Inst{Op: OpMulh, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != 0 {
		t.Errorf("mulh: got %#x", c.rf.X[3])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	c := newFakeCtx()
	set := func(a, b uint32) {
		c.rf.X[1], c.rf.X[2] = a, b
	}
	// Division by zero.
	set(42, 0)
	exec(t, c, Inst{Op: OpDiv, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != ^uint32(0) {
		t.Errorf("div/0 = %#x", c.rf.X[3])
	}
	exec(t, c, Inst{Op: OpRem, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != 42 {
		t.Errorf("rem/0 = %d", c.rf.X[3])
	}
	exec(t, c, Inst{Op: OpDivu, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != ^uint32(0) {
		t.Errorf("divu/0 = %#x", c.rf.X[3])
	}
	exec(t, c, Inst{Op: OpRemu, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != 42 {
		t.Errorf("remu/0 = %d", c.rf.X[3])
	}
	// Signed overflow INT_MIN / -1.
	set(0x8000_0000, ^uint32(0))
	exec(t, c, Inst{Op: OpDiv, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != 0x8000_0000 {
		t.Errorf("INT_MIN/-1 = %#x", c.rf.X[3])
	}
	exec(t, c, Inst{Op: OpRem, Rd: 3, Rs1: 1, Rs2: 2})
	if c.rf.X[3] != 0 {
		t.Errorf("INT_MIN%%-1 = %d", c.rf.X[3])
	}
}

// TestX0Hardwired runs every opcode that writes an integer rd with rd = 0
// and checks that the write is dropped: the file, X[0] included, is left as
// it was. Each opcode is run over three operand pairs (a < b, a > b, a == b),
// and must produce a nonzero result for some pair when rd is a real
// register, so that a write reaching X[0] would show.
func TestX0Hardwired(t *testing.T) {
	pairs := []struct {
		a, b   uint32
		fa, fb float64
	}{
		{0xF000_010F, 3, 1.5, 2.5},
		{3, 0xF000_010F, 2.5, 1.5},
		{7, 7, 2.5, 2.5},
	}
	const imm = 8
	setup := func(a, b uint32, fa, fb float64) *fakeCtx {
		c := newFakeCtx()
		c.pc = 0x1000
		c.rf.X[1], c.rf.X[2] = a, b
		c.rf.F[1], c.rf.F[2] = fa, fb
		c.csrs[imm] = 0x55
		for i := uint32(0); i < 8; i++ {
			c.mem[a+imm+i] = 0xA5
		}
		return c
	}
	checked := 0
	for op := Op(1); int(op) < NumOps; op++ {
		info := opTable[op]
		if !info.writesRd || info.fpRd {
			continue
		}
		checked++
		nonzero := false
		for _, p := range pairs {
			c := setup(p.a, p.b, p.fa, p.fb)
			before := c.rf
			exec(t, c, Inst{Op: op, Rd: 0, Rs1: 1, Rs2: 2, Imm: imm})
			if c.rf != before {
				t.Errorf("%s with rd = x0 changed the register file: X[0] = %#x", op.Name(), c.rf.X[0])
			}
			c = setup(p.a, p.b, p.fa, p.fb)
			exec(t, c, Inst{Op: op, Rd: 5, Rs1: 1, Rs2: 2, Imm: imm})
			nonzero = nonzero || c.rf.X[5] != 0
		}
		if !nonzero {
			t.Errorf("%s writes zero to rd for every operand pair, so a write to x0 would not show", op.Name())
		}
	}
	if checked < 40 {
		t.Fatalf("checked %d opcodes that write an integer rd, want every one (at least 40)", checked)
	}
	in := Inst{Op: OpAdd, Rd: 0, Rs1: 1, Rs2: 1}
	if in.Dest() != InvalidReg {
		t.Fatal("write to x0 should have no dest")
	}
}

func TestLoadsAndStores(t *testing.T) {
	c := newFakeCtx()
	c.rf.X[1] = 0x100
	c.rf.X[2] = 0xDEADBEEF
	exec(t, c, Inst{Op: OpSw, Rs1: 1, Rs2: 2, Imm: 4})
	out := exec(t, c, Inst{Op: OpLw, Rd: 3, Rs1: 1, Imm: 4})
	if !out.HasMem || out.MemAddr != 0x104 {
		t.Fatalf("outcome = %+v", out)
	}
	if c.rf.X[3] != 0xDEADBEEF {
		t.Fatalf("lw = %#x", c.rf.X[3])
	}
	// Signed byte load.
	exec(t, c, Inst{Op: OpLb, Rd: 3, Rs1: 1, Imm: 7}) // 0xDE
	if c.rf.X[3] != 0xFFFF_FFDE {
		t.Fatalf("lb = %#x", c.rf.X[3])
	}
	exec(t, c, Inst{Op: OpLbu, Rd: 3, Rs1: 1, Imm: 7})
	if c.rf.X[3] != 0xDE {
		t.Fatalf("lbu = %#x", c.rf.X[3])
	}
	// Halfword.
	exec(t, c, Inst{Op: OpLh, Rd: 3, Rs1: 1, Imm: 6}) // 0xDEAD
	if c.rf.X[3] != 0xFFFF_DEAD {
		t.Fatalf("lh = %#x", c.rf.X[3])
	}
	exec(t, c, Inst{Op: OpLhu, Rd: 3, Rs1: 1, Imm: 6})
	if c.rf.X[3] != 0xDEAD {
		t.Fatalf("lhu = %#x", c.rf.X[3])
	}
	// Float round trip through memory.
	c.rf.F[4] = 3.25
	exec(t, c, Inst{Op: OpFsd, Rs1: 1, Rs2: 4, Imm: 16})
	exec(t, c, Inst{Op: OpFld, Rd: 5, Rs1: 1, Imm: 16})
	if c.rf.F[5] != 3.25 {
		t.Fatalf("fld = %v", c.rf.F[5])
	}
}

func TestBranchesAndJumps(t *testing.T) {
	c := newFakeCtx()
	c.pc = 0x1000
	c.rf.X[1] = 5
	c.rf.X[2] = 5
	out := exec(t, c, Inst{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 10})
	if !out.ControlTaken || out.ControlTarget != 0x1000+40 {
		t.Fatalf("beq taken: %+v", out)
	}
	out = exec(t, c, Inst{Op: OpBne, Rs1: 1, Rs2: 2, Imm: 10})
	if out.ControlTaken {
		t.Fatalf("bne not-taken: %+v", out)
	}
	if out.NextPC(c.pc) != 0x1004 {
		t.Fatalf("NextPC fallthrough = %#x", out.NextPC(c.pc))
	}
	// Backward branch.
	out = exec(t, c, Inst{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: -4})
	if out.ControlTarget != 0x1000-16 {
		t.Fatalf("backward target = %#x", out.ControlTarget)
	}
	// JAL links and redirects.
	out = exec(t, c, Inst{Op: OpJal, Rd: 1, Imm: 100})
	if c.rf.X[1] != 0x1004 || out.ControlTarget != 0x1000+400 || !out.ControlTaken {
		t.Fatalf("jal: link=%#x out=%+v", c.rf.X[1], out)
	}
	// JALR masks low bits.
	c.rf.X[5] = 0x2003
	out = exec(t, c, Inst{Op: OpJalr, Rd: 2, Rs1: 5, Imm: 0})
	if out.ControlTarget != 0x2000 {
		t.Fatalf("jalr target = %#x", out.ControlTarget)
	}
	// Unsigned comparisons.
	c.rf.X[1] = 0xFFFF_FFFF // -1 signed, huge unsigned
	c.rf.X[2] = 1
	out = exec(t, c, Inst{Op: OpBlt, Rs1: 1, Rs2: 2, Imm: 1})
	if !out.ControlTaken {
		t.Fatal("blt signed should take")
	}
	out = exec(t, c, Inst{Op: OpBltu, Rs1: 1, Rs2: 2, Imm: 1})
	if out.ControlTaken {
		t.Fatal("bltu unsigned should not take")
	}
}

func TestFloatOps(t *testing.T) {
	c := newFakeCtx()
	c.rf.F[1] = 9.0
	c.rf.F[2] = 2.0
	checks := []struct {
		op   Op
		want float64
	}{
		{OpFadd, 11}, {OpFsub, 7}, {OpFmul, 18}, {OpFdiv, 4.5},
		{OpFmin, 2}, {OpFmax, 9},
	}
	for _, tc := range checks {
		exec(t, c, Inst{Op: tc.op, Rd: 3, Rs1: 1, Rs2: 2})
		if c.rf.F[3] != tc.want {
			t.Errorf("%s = %v, want %v", tc.op.Name(), c.rf.F[3], tc.want)
		}
	}
	exec(t, c, Inst{Op: OpFsqrt, Rd: 3, Rs1: 1})
	if c.rf.F[3] != 3 {
		t.Errorf("fsqrt = %v", c.rf.F[3])
	}
	c.rf.F[1] = -2.5
	exec(t, c, Inst{Op: OpFabs, Rd: 3, Rs1: 1})
	if c.rf.F[3] != 2.5 {
		t.Errorf("fabs = %v", c.rf.F[3])
	}
	exec(t, c, Inst{Op: OpFneg, Rd: 3, Rs1: 1})
	if c.rf.F[3] != 2.5 {
		t.Errorf("fneg = %v", c.rf.F[3])
	}
	exec(t, c, Inst{Op: OpFmv, Rd: 3, Rs1: 1})
	if c.rf.F[3] != -2.5 {
		t.Errorf("fmv = %v", c.rf.F[3])
	}
	// Conversions.
	minus7 := int32(-7)
	c.rf.X[4] = uint32(minus7)
	exec(t, c, Inst{Op: OpFcvtDW, Rd: 3, Rs1: 4})
	if c.rf.F[3] != -7 {
		t.Errorf("fcvt.d.w = %v", c.rf.F[3])
	}
	c.rf.F[1] = -3.9
	exec(t, c, Inst{Op: OpFcvtWD, Rd: 5, Rs1: 1})
	if int32(c.rf.X[5]) != -3 {
		t.Errorf("fcvt.w.d = %d", int32(c.rf.X[5]))
	}
	// Comparisons.
	c.rf.F[1], c.rf.F[2] = 1.0, 2.0
	exec(t, c, Inst{Op: OpFlt, Rd: 5, Rs1: 1, Rs2: 2})
	if c.rf.X[5] != 1 {
		t.Error("flt")
	}
	exec(t, c, Inst{Op: OpFeq, Rd: 5, Rs1: 1, Rs2: 2})
	if c.rf.X[5] != 0 {
		t.Error("feq")
	}
	exec(t, c, Inst{Op: OpFle, Rd: 5, Rs1: 1, Rs2: 1})
	if c.rf.X[5] != 1 {
		t.Error("fle")
	}
	// NaN propagates through sqrt of negative.
	c.rf.F[1] = -1
	exec(t, c, Inst{Op: OpFsqrt, Rd: 3, Rs1: 1})
	if !math.IsNaN(c.rf.F[3]) {
		t.Error("fsqrt(-1) should be NaN")
	}
}

func TestSystemOps(t *testing.T) {
	c := newFakeCtx()
	exec(t, c, Inst{Op: OpEcall})
	exec(t, c, Inst{Op: OpEbreak})
	exec(t, c, Inst{Op: OpWfi})
	if c.ecalls != 1 || c.ebreaks != 1 || c.wfis != 1 {
		t.Fatalf("system counts: %d %d %d", c.ecalls, c.ebreaks, c.wfis)
	}
	c.rf.X[1] = 0x55
	exec(t, c, Inst{Op: OpCsrrw, Rd: 2, Rs1: 1, Imm: 0x300})
	if c.csrs[0x300] != 0x55 || c.rf.X[2] != 0 {
		t.Fatalf("csrrw: csr=%#x rd=%#x", c.csrs[0x300], c.rf.X[2])
	}
	c.rf.X[1] = 0x0A
	exec(t, c, Inst{Op: OpCsrrs, Rd: 2, Rs1: 1, Imm: 0x300})
	if c.csrs[0x300] != 0x5F || c.rf.X[2] != 0x55 {
		t.Fatalf("csrrs: csr=%#x rd=%#x", c.csrs[0x300], c.rf.X[2])
	}
	// csrrs with rs1=x0 must not write.
	exec(t, c, Inst{Op: OpCsrrs, Rd: 3, Rs1: 0, Imm: 0x300})
	if c.csrs[0x300] != 0x5F || c.rf.X[3] != 0x5F {
		t.Fatal("csrrs x0 should be read-only")
	}
	c.mretTarget = 0x8000
	out := exec(t, c, Inst{Op: OpMret})
	if !out.ControlTaken || out.ControlTarget != 0x8000 {
		t.Fatalf("mret: %+v", out)
	}
	// Illegal instruction errors out.
	if _, err := Execute(Inst{Op: OpInvalid}, c.pc, c); err == nil {
		t.Fatal("OpInvalid should error")
	}
}

func TestOperandMetadata(t *testing.T) {
	in := Inst{Op: OpAdd, Rd: 3, Rs1: 1, Rs2: 2}
	if in.Dest() != 3 {
		t.Errorf("add dest = %d", in.Dest())
	}
	srcs := in.Srcs(nil)
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 2 {
		t.Errorf("add srcs = %v", srcs)
	}
	fin := Inst{Op: OpFadd, Rd: 3, Rs1: 1, Rs2: 2}
	if fin.Dest() != FpRegBase+3 {
		t.Errorf("fadd dest = %d", fin.Dest())
	}
	fsrcs := fin.Srcs(nil)
	if fsrcs[0] != FpRegBase+1 || fsrcs[1] != FpRegBase+2 {
		t.Errorf("fadd srcs = %v", fsrcs)
	}
	st := Inst{Op: OpSw, Rs1: 1, Rs2: 2}
	if st.Dest() != InvalidReg {
		t.Error("store has no dest")
	}
	if !st.IsStore() || !st.IsMem() || st.IsLoad() {
		t.Error("store flags wrong")
	}
	ld := Inst{Op: OpFld, Rd: 7, Rs1: 1}
	if ld.Dest() != FpRegBase+7 || !ld.IsLoad() || ld.MemSize() != 8 {
		t.Error("fld metadata wrong")
	}
	br := Inst{Op: OpBeq}
	if !br.IsBranch() || !br.IsControl() || br.IsJump() || br.IsIndirect() {
		t.Error("branch flags wrong")
	}
	j := Inst{Op: OpJalr, Rd: 1, Rs1: 2}
	if !j.IsJump() || !j.IsIndirect() || !j.IsControl() {
		t.Error("jalr flags wrong")
	}
	if OpLw.Class() != ClassMemRead || OpFdiv.Class() != ClassFloatDiv {
		t.Error("classes wrong")
	}
	if ClassIntAlu.String() != "IntAlu" || Class(200).String() != "Class?" {
		t.Error("class strings wrong")
	}
}

func TestOpByName(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		got, ok := OpByName(op.Name())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.Name(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("bogus mnemonic resolved")
	}
	if Op(250).Name() != "op?" {
		t.Error("out-of-range name")
	}
}

func TestEffAddrAndStoreDataPanics(t *testing.T) {
	c := newFakeCtx()
	defer func() {
		if recover() == nil {
			t.Error("EffAddr on non-mem should panic")
		}
	}()
	EffAddr(Inst{Op: OpAdd}, &c.rf)
}

func TestCompleteLoadPanics(t *testing.T) {
	c := newFakeCtx()
	defer func() {
		if recover() == nil {
			t.Error("CompleteLoad on non-load should panic")
		}
	}()
	CompleteLoad(Inst{Op: OpAdd}, &c.rf, 0)
}
