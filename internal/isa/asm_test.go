package isa

import (
	"encoding/binary"
	"strings"
	"testing"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func word(t *testing.T, p *Program, addr uint32) Inst {
	t.Helper()
	off := addr - p.Base
	if int(off)+4 > len(p.Data) {
		t.Fatalf("address %#x outside image", addr)
	}
	return Decode(Word(binary.LittleEndian.Uint32(p.Data[off:])))
}

func TestAssembleBasic(t *testing.T) {
	p := mustAssemble(t, `
		# a tiny program
		_start:
			addi x1, x0, 10
			add  x2, x2, x1
			ecall
	`)
	if p.Base != DefaultBase || p.Entry != DefaultBase {
		t.Fatalf("base=%#x entry=%#x", p.Base, p.Entry)
	}
	if p.Size() != 12 {
		t.Fatalf("size = %d", p.Size())
	}
	in := word(t, p, p.Base)
	if in.Op != OpAddi || in.Rd != 1 || in.Imm != 10 {
		t.Fatalf("first inst = %v", in)
	}
	if word(t, p, p.Base+8).Op != OpEcall {
		t.Fatal("third inst not ecall")
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
		_start:
			addi x1, x0, 5
		loop:
			addi x1, x1, -1
			bne  x1, x0, loop
			jal  x0, done
			nop
		done:
			ebreak
	`)
	// bne at base+8 targets loop at base+4: offset -1 word.
	bne := word(t, p, p.Base+8)
	if bne.Op != OpBne || bne.Imm != -1 {
		t.Fatalf("bne = %v", bne)
	}
	jal := word(t, p, p.Base+12)
	if jal.Op != OpJal || jal.Imm != 2 {
		t.Fatalf("jal = %v", jal)
	}
	if p.Symbol("done") != p.Base+20 {
		t.Fatalf("done = %#x", p.Symbol("done"))
	}
}

func TestAssembleMemOperands(t *testing.T) {
	p := mustAssemble(t, `
		lw  x1, 8(x2)
		sw  x1, -4(sp)
		lw  x3, (x4)
		fld f1, 16(a0)
		fsd f1, 0(a0)
	`)
	lw := word(t, p, p.Base)
	if lw.Op != OpLw || lw.Rd != 1 || lw.Rs1 != 2 || lw.Imm != 8 {
		t.Fatalf("lw = %v", lw)
	}
	sw := word(t, p, p.Base+4)
	if sw.Op != OpSw || sw.Rs2 != 1 || sw.Rs1 != 2 || sw.Imm != -4 {
		t.Fatalf("sw = %v", sw)
	}
	if word(t, p, p.Base+8).Imm != 0 {
		t.Fatal("(x4) should have zero offset")
	}
	fld := word(t, p, p.Base+12)
	if fld.Op != OpFld || fld.Rd != 1 || fld.Rs1 != 10 {
		t.Fatalf("fld = %v", fld)
	}
}

func TestAssemblePseudo(t *testing.T) {
	p := mustAssemble(t, `
		_start:
			li   a0, 0xDEADBEEF
			li   a1, 42
			la   a2, data
			mv   a3, a0
			call func
			j    end
		func:
			not  t0, a0
			neg  t1, a1
			ret
		end:
			halt
		data:
			.word 0x12345678
	`)
	// li expands to lui+ori; executing them must produce the constant.
	c := newFakeCtx()
	c.pc = p.Entry
	for i := 0; i < 2; i++ {
		in := word(t, p, c.pc)
		out := exec(t, c, in)
		c.pc = out.NextPC(c.pc)
	}
	if c.rf.X[10] != 0xDEADBEEF {
		t.Fatalf("li a0 = %#x", c.rf.X[10])
	}
	for i := 0; i < 2; i++ {
		in := word(t, p, c.pc)
		out := exec(t, c, in)
		c.pc = out.NextPC(c.pc)
	}
	if c.rf.X[11] != 42 {
		t.Fatalf("li a1 = %d", c.rf.X[11])
	}
	for i := 0; i < 2; i++ {
		in := word(t, p, c.pc)
		out := exec(t, c, in)
		c.pc = out.NextPC(c.pc)
	}
	if c.rf.X[12] != p.Symbol("data") {
		t.Fatalf("la a2 = %#x, want %#x", c.rf.X[12], p.Symbol("data"))
	}
	// call encodes jal ra.
	callIn := word(t, p, p.Entry+7*4)
	if callIn.Op != OpJal || callIn.Rd != 1 {
		t.Fatalf("call = %v", callIn)
	}
	// ret encodes jalr x0, 0(ra).
	retIn := word(t, p, p.Symbol("func")+8)
	if retIn.Op != OpJalr || retIn.Rd != 0 || retIn.Rs1 != 1 {
		t.Fatalf("ret = %v", retIn)
	}
	// halt encodes ebreak.
	if word(t, p, p.Symbol("end")).Op != OpEbreak {
		t.Fatal("halt != ebreak")
	}
}

func TestAssembleDirectives(t *testing.T) {
	p := mustAssemble(t, `
		.org 0x2000
		_start:
			nop
		vals:
			.word 1, 2, 3
			.byte 0xAA, 0xBB
			.align 8
		flt:
			.double 2.5
		msg:
			.asciz "hi"
		buf:
			.space 16
		end_of_image:
			nop
	`)
	if p.Base != 0x2000 {
		t.Fatalf("base = %#x", p.Base)
	}
	off := p.Symbol("vals") - p.Base
	if binary.LittleEndian.Uint32(p.Data[off:]) != 1 ||
		binary.LittleEndian.Uint32(p.Data[off+8:]) != 3 {
		t.Fatal(".word values wrong")
	}
	boff := off + 12
	if p.Data[boff] != 0xAA || p.Data[boff+1] != 0xBB {
		t.Fatal(".byte values wrong")
	}
	if p.Symbol("flt")%8 != 0 {
		t.Fatal(".align failed")
	}
	doff := p.Symbol("flt") - p.Base
	bits := binary.LittleEndian.Uint64(p.Data[doff:])
	if bits != 0x4004000000000000 { // 2.5
		t.Fatalf(".double = %#x", bits)
	}
	moff := p.Symbol("msg") - p.Base
	if string(p.Data[moff:moff+3]) != "hi\x00" {
		t.Fatal(".asciz wrong")
	}
	if p.Symbol("end_of_image")-p.Symbol("buf") != 16 {
		t.Fatal(".space wrong")
	}
}

func TestAssembleRegisterAliases(t *testing.T) {
	p := mustAssemble(t, "add sp, ra, t0\nadd a0, s0, t6\nadd zero, fp, s11")
	in := word(t, p, p.Base)
	if in.Rd != 2 || in.Rs1 != 1 || in.Rs2 != 5 {
		t.Fatalf("aliases: %v", in)
	}
	in = word(t, p, p.Base+4)
	if in.Rd != 10 || in.Rs1 != 8 || in.Rs2 != 31 {
		t.Fatalf("aliases: %v", in)
	}
	in = word(t, p, p.Base+8)
	if in.Rd != 0 || in.Rs1 != 8 || in.Rs2 != 27 {
		t.Fatalf("aliases: %v", in)
	}
}

func TestAssembleCSR(t *testing.T) {
	p := mustAssemble(t, "csrrw x1, 0x300, x2\ncsrrs x0, 0x305, x0\nwfi\nmret")
	in := word(t, p, p.Base)
	if in.Op != OpCsrrw || in.Rd != 1 || in.Rs1 != 2 || in.Imm != 0x300 {
		t.Fatalf("csrrw = %v", in)
	}
	if word(t, p, p.Base+8).Op != OpWfi || word(t, p, p.Base+12).Op != OpMret {
		t.Fatal("wfi/mret wrong")
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"bogus x1, x2",
		"addi x1, x0",                      // missing operand
		"addi x1, x0, 99999",               // imm out of range
		"add x99, x0, x0",                  // bad register
		"lw x1, 8[x2]",                     // bad mem operand
		"beq x1, x2, nowhere",              // undefined label
		"x: nop\nx: nop",                   // duplicate label
		".org 0x100\nnop\n.org 0x200\nnop", // .org after code
		".word",                            // missing values
		".align 3",                         // non power of two
		"9label: nop",                      // bad label
		"li x1",                            // missing value
		"la x1, nowhere",                   // undefined la
		".asciz hi",                        // unquoted
		".space 999999999",                 // over the image cap
		".align 2147483648",                // pad would exceed the image cap
		".space 9000000\n.space 9000000",   // cumulative image over the cap
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

// TestAssembleEmptySource pins the fix for a buffer-sizing bug: a source
// with no code ever emitted left loc at 0 while base defaulted to 0x1000,
// and the loc-base underflow reserved a ~4 GiB output buffer.
func TestAssembleEmptySource(t *testing.T) {
	for _, src := range []string{"", "# comment only\n", "\n\n\n", "; other comment style"} {
		prog, err := Assemble(src)
		if err != nil {
			t.Fatalf("Assemble(%q): %v", src, err)
		}
		if len(prog.Data) != 0 || cap(prog.Data) > 64 {
			t.Fatalf("Assemble(%q): len=%d cap=%d, want empty", src, len(prog.Data), cap(prog.Data))
		}
	}
}

func TestAssembleErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestDisassemble(t *testing.T) {
	cases := map[string]Inst{
		"add x3, x1, x2":      {Op: OpAdd, Rd: 3, Rs1: 1, Rs2: 2},
		"addi x3, x1, -5":     {Op: OpAddi, Rd: 3, Rs1: 1, Imm: -5},
		"lw x3, 8(x1)":        {Op: OpLw, Rd: 3, Rs1: 1, Imm: 8},
		"sw x2, -4(x1)":       {Op: OpSw, Rs1: 1, Rs2: 2, Imm: -4},
		"beq x1, x2, 7":       {Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 7},
		"jal x1, -3":          {Op: OpJal, Rd: 1, Imm: -3},
		"jalr x0, 0(x1)":      {Op: OpJalr, Rd: 0, Rs1: 1},
		"fadd f3, f1, f2":     {Op: OpFadd, Rd: 3, Rs1: 1, Rs2: 2},
		"fsd f2, 16(x1)":      {Op: OpFsd, Rs1: 1, Rs2: 2, Imm: 16},
		"fld f2, 16(x1)":      {Op: OpFld, Rd: 2, Rs1: 1, Imm: 16},
		"fsqrt f3, f1":        {Op: OpFsqrt, Rd: 3, Rs1: 1},
		"ecall":               {Op: OpEcall},
		"lui x1, 0x12345":     {Op: OpLui, Rd: 1, Imm: 0x12345},
		"csrrw x1, 0x300, x2": {Op: OpCsrrw, Rd: 1, Rs1: 2, Imm: 0x300},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", in, got, want)
		}
	}
}

// TestAssembleDisassembleReassemble checks that disassembled text
// reassembles to the identical encoding for a representative program.
func TestAssembleDisassembleReassemble(t *testing.T) {
	src := `
		add x3, x1, x2
		sub x4, x3, x1
		addi x5, x4, 100
		lw x6, 4(x5)
		sw x6, 8(x5)
		fadd f3, f1, f2
		fld f2, 16(x1)
		fsd f2, 24(x1)
		ecall
	`
	p := mustAssemble(t, src)
	var lines []string
	for off := 0; off < len(p.Data); off += 4 {
		in := Decode(Word(binary.LittleEndian.Uint32(p.Data[off:])))
		lines = append(lines, in.String())
	}
	p2 := mustAssemble(t, strings.Join(lines, "\n"))
	if string(p.Data) != string(p2.Data) {
		t.Fatal("reassembled image differs")
	}
}

func TestProgramSymbolPanics(t *testing.T) {
	p := mustAssemble(t, "nop")
	defer func() {
		if recover() == nil {
			t.Error("Symbol on undefined label should panic")
		}
	}()
	p.Symbol("missing")
}
