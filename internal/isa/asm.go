package isa

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Program is an assembled KISA image: a single contiguous segment plus an
// entry point and a symbol table.
type Program struct {
	// Base is the load address of Data[0].
	Base uint32
	// Data is the image contents (instructions and initialized data).
	Data []byte
	// Entry is the first PC; the address of "_start" when defined, else Base.
	Entry uint32
	// Symbols maps every label to its address.
	Symbols map[string]uint32
}

// Size returns the image size in bytes.
func (p *Program) Size() int { return len(p.Data) }

// Symbol returns the address of a label, panicking if undefined. It is a
// convenience for tests and workload authors.
func (p *Program) Symbol(name string) uint32 {
	a, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: undefined symbol %q", name))
	}
	return a
}

// DefaultBase is the load address used when a source omits .org.
const DefaultBase uint32 = 0x1000

// maxSpaceBytes caps a single .space reservation and the total assembled
// image. Guest memories top out at a few tens of MiB, so a larger request
// is a typo (or a fuzzer input) rather than a real program, and rejecting
// it keeps assembly cost proportional to source length.
const maxSpaceBytes = 16 << 20

// Register aliases follow the RISC-V ABI names.
var regAliases = map[string]uint8{
	"zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
	"t0": 5, "t1": 6, "t2": 7,
	"s0": 8, "fp": 8, "s1": 9,
	"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
	"s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25,
	"s10": 26, "s11": 27,
	"t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

type asmError struct {
	line int
	msg  string
}

func (e *asmError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.line, e.msg) }

// item is one source statement after pass 1: either an instruction to encode
// or raw bytes.
type item struct {
	line   int
	addr   uint32
	raw    []byte // non-nil for data directives
	mnem   string
	args   []string
	nwords int // words this statement occupies (pseudo expansion)
}

// Assemble translates KISA assembly into a Program. The syntax supports
// labels ("name:"), comments ("#" or ";"), the directives .org .word .byte
// .double .asciz .space .align, and the pseudo-instructions li, la, mv, j,
// call, ret, nop, and halt (ebreak).
func Assemble(src string) (*Program, error) {
	labels := make(map[string]uint32)
	var items []item
	base := uint32(0)
	baseSet := false
	loc := uint32(0)

	fail := func(line int, format string, args ...any) error {
		return &asmError{line: line, msg: fmt.Sprintf(format, args...)}
	}

	// Pass 1: tokenize, expand sizes, assign addresses, collect labels.
	for ln, rawLine := range strings.Split(src, "\n") {
		line := ln + 1
		text := rawLine
		if i := strings.IndexAny(text, "#;"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		for {
			colon := strings.Index(text, ":")
			if colon < 0 {
				break
			}
			label := strings.TrimSpace(text[:colon])
			if !isIdent(label) {
				return nil, fail(line, "bad label %q", label)
			}
			if !baseSet {
				base, baseSet = DefaultBase, true
				loc = base
			}
			if _, dup := labels[label]; dup {
				return nil, fail(line, "duplicate label %q", label)
			}
			labels[label] = loc
			text = strings.TrimSpace(text[colon+1:])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		mnem := strings.ToLower(fields[0])
		rest := strings.TrimSpace(text[len(fields[0]):])
		var args []string
		if rest != "" {
			for _, a := range strings.Split(rest, ",") {
				args = append(args, strings.TrimSpace(a))
			}
		}

		if strings.HasPrefix(mnem, ".") {
			it, newLoc, newBase, err := directive(line, mnem, args, rest, loc, baseSet)
			if err != nil {
				return nil, err
			}
			if mnem == ".org" {
				base, baseSet, loc = newBase, true, newLoc
				continue
			}
			if !baseSet {
				base, baseSet = DefaultBase, true
				loc = base
			}
			it.addr = loc
			items = append(items, it)
			loc += uint32(len(it.raw))
			if loc-base > maxSpaceBytes {
				return nil, fail(line, "image size %d exceeds the %d-byte cap", loc-base, maxSpaceBytes)
			}
			continue
		}

		if !baseSet {
			base, baseSet = DefaultBase, true
			loc = base
		}
		n := pseudoWords(mnem)
		if n == 0 {
			if _, ok := OpByName(mnem); !ok {
				return nil, fail(line, "unknown mnemonic %q", mnem)
			}
			n = 1
		}
		items = append(items, item{line: line, addr: loc, mnem: mnem, args: args, nwords: n})
		loc += uint32(n) * InstBytes
	}
	if !baseSet {
		// No labels, instructions, or directives ever set the origin, so
		// loc is still 0: reset it alongside base or loc-base underflows
		// (an empty source would reserve a ~4 GiB output buffer below).
		base, loc = DefaultBase, DefaultBase
	}

	// Pass 2: encode.
	out := make([]byte, 0, int(loc-base))
	emitWord := func(w Word) {
		out = binary.LittleEndian.AppendUint32(out, uint32(w))
	}
	for _, it := range items {
		if int(it.addr-base) != len(out) {
			return nil, fail(it.line, "internal: location mismatch")
		}
		if it.raw != nil {
			out = append(out, it.raw...)
			continue
		}
		words, err := encodeStmt(it, labels)
		if err != nil {
			return nil, err
		}
		for _, w := range words {
			emitWord(w)
		}
	}

	entry := base
	if e, ok := labels["_start"]; ok {
		entry = e
	}
	return &Program{Base: base, Data: out, Entry: entry, Symbols: labels}, nil
}

// directive handles one dot-directive in pass 1.
func directive(line int, mnem string, args []string, rest string, loc uint32, baseSet bool) (item, uint32, uint32, error) {
	fail := func(format string, fargs ...any) (item, uint32, uint32, error) {
		return item{}, 0, 0, &asmError{line: line, msg: fmt.Sprintf(format, fargs...)}
	}
	switch mnem {
	case ".org":
		if len(args) != 1 {
			return fail(".org needs one address")
		}
		v, err := parseImm(args[0])
		if err != nil {
			return fail(".org: %v", err)
		}
		if baseSet {
			return fail(".org after code is not supported")
		}
		return item{}, uint32(v), uint32(v), nil
	case ".word":
		var raw []byte
		for _, a := range args {
			v, err := parseImm(a)
			if err != nil {
				return fail(".word: %v", err)
			}
			raw = binary.LittleEndian.AppendUint32(raw, uint32(v))
		}
		if raw == nil {
			return fail(".word needs values")
		}
		return item{line: line, raw: raw}, 0, 0, nil
	case ".byte":
		var raw []byte
		for _, a := range args {
			v, err := parseImm(a)
			if err != nil {
				return fail(".byte: %v", err)
			}
			raw = append(raw, byte(v))
		}
		if raw == nil {
			return fail(".byte needs values")
		}
		return item{line: line, raw: raw}, 0, 0, nil
	case ".double":
		var raw []byte
		for _, a := range args {
			f, err := strconv.ParseFloat(a, 64)
			if err != nil {
				return fail(".double: %v", err)
			}
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
		}
		if raw == nil {
			return fail(".double needs values")
		}
		return item{line: line, raw: raw}, 0, 0, nil
	case ".asciz":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return fail(".asciz needs a quoted string")
		}
		return item{line: line, raw: append([]byte(s), 0)}, 0, 0, nil
	case ".space":
		if len(args) != 1 {
			return fail(".space needs a size")
		}
		v, err := parseImm(args[0])
		if err != nil || v < 0 {
			return fail(".space: bad size")
		}
		if v > maxSpaceBytes {
			return fail(".space: size %d exceeds the %d-byte image cap", v, maxSpaceBytes)
		}
		return item{line: line, raw: make([]byte, v)}, 0, 0, nil
	case ".align":
		if len(args) != 1 {
			return fail(".align needs a byte alignment")
		}
		v, err := parseImm(args[0])
		if err != nil || v <= 0 || v&(v-1) != 0 || v > maxSpaceBytes {
			return fail(".align: bad alignment")
		}
		pad := (uint32(v) - loc%uint32(v)) % uint32(v)
		return item{line: line, raw: make([]byte, pad)}, 0, 0, nil
	}
	return fail("unknown directive %q", mnem)
}

// pseudoWords returns how many instruction words a pseudo-mnemonic expands
// to, or 0 when mnem is not a pseudo-instruction.
func pseudoWords(mnem string) int {
	switch mnem {
	case "li", "la":
		return 2
	case "mv", "j", "call", "ret", "nop", "halt", "not", "neg":
		return 1
	}
	return 0
}

// encodeStmt encodes one instruction statement (including pseudo expansion).
func encodeStmt(it item, labels map[string]uint32) ([]Word, error) {
	fail := func(format string, args ...any) ([]Word, error) {
		return nil, &asmError{line: it.line, msg: fmt.Sprintf(format, args...)}
	}
	argN := func(n int) bool { return len(it.args) == n }

	// Pseudo-instructions first.
	switch it.mnem {
	case "nop":
		return []Word{MustEncode(Inst{Op: OpAddi})}, nil
	case "halt":
		return []Word{MustEncode(Inst{Op: OpEbreak})}, nil
	case "ret":
		return []Word{MustEncode(Inst{Op: OpJalr, Rd: 0, Rs1: 1})}, nil
	case "mv":
		if !argN(2) {
			return fail("mv rd, rs")
		}
		rd, err1 := parseReg(it.args[0])
		rs, err2 := parseReg(it.args[1])
		if err1 != nil || err2 != nil {
			return fail("mv: bad register")
		}
		return []Word{MustEncode(Inst{Op: OpAddi, Rd: rd, Rs1: rs})}, nil
	case "not":
		if !argN(2) {
			return fail("not rd, rs")
		}
		rd, err1 := parseReg(it.args[0])
		rs, err2 := parseReg(it.args[1])
		if err1 != nil || err2 != nil {
			return fail("not: bad register")
		}
		return []Word{MustEncode(Inst{Op: OpXori, Rd: rd, Rs1: rs, Imm: -1})}, nil
	case "neg":
		if !argN(2) {
			return fail("neg rd, rs")
		}
		rd, err1 := parseReg(it.args[0])
		rs, err2 := parseReg(it.args[1])
		if err1 != nil || err2 != nil {
			return fail("neg: bad register")
		}
		return []Word{MustEncode(Inst{Op: OpSub, Rd: rd, Rs1: 0, Rs2: rs})}, nil
	case "li", "la":
		if !argN(2) {
			return fail("%s rd, value", it.mnem)
		}
		rd, err := parseReg(it.args[0])
		if err != nil {
			return fail("%s: bad register", it.mnem)
		}
		var v int64
		if it.mnem == "la" {
			addr, ok := labels[it.args[1]]
			if !ok {
				return fail("la: undefined label %q", it.args[1])
			}
			v = int64(addr)
		} else {
			var perr error
			v, perr = parseImm(it.args[1])
			if perr != nil {
				if addr, ok := labels[it.args[1]]; ok {
					v = int64(addr)
				} else {
					return fail("li: %v", perr)
				}
			}
		}
		u := uint32(v)
		hi := signExtend(u>>12, 20)
		lo := int32(u & 0xfff)
		return []Word{
			MustEncode(Inst{Op: OpLui, Rd: rd, Imm: hi}),
			MustEncode(Inst{Op: OpOri, Rd: rd, Rs1: rd, Imm: lo}),
		}, nil
	case "j", "call":
		if !argN(1) {
			return fail("%s label", it.mnem)
		}
		target, ok := labels[it.args[0]]
		if !ok {
			return fail("%s: undefined label %q", it.mnem, it.args[0])
		}
		rd := uint8(0)
		if it.mnem == "call" {
			rd = 1 // ra
		}
		off := wordOffset(it.addr, target)
		if off < MinImm20 || off > MaxImm20 {
			return fail("%s: target out of range", it.mnem)
		}
		return []Word{MustEncode(Inst{Op: OpJal, Rd: rd, Imm: off})}, nil
	}

	op, ok := OpByName(it.mnem)
	if !ok {
		return fail("unknown mnemonic %q", it.mnem)
	}
	in := Inst{Op: op}
	var err error
	switch op.Format() {
	case FmtR:
		err = parseFmtR(&in, it.args)
	case FmtI:
		err = parseFmtI(&in, it.args)
	case FmtS:
		err = parseFmtS(&in, it.args)
	case FmtB:
		err = parseFmtB(&in, it.args, it.addr, labels)
	case FmtU:
		err = parseFmtU(&in, it.args)
	case FmtJ:
		err = parseFmtJ(&in, it.args, it.addr, labels)
	}
	if err != nil {
		return fail("%s: %v", it.mnem, err)
	}
	w, eerr := Encode(in)
	if eerr != nil {
		return fail("%v", eerr)
	}
	return []Word{w}, nil
}

func parseFmtR(in *Inst, args []string) error {
	info := &opTable[in.Op]
	want := 1
	if info.readsRs1 {
		want++
	}
	if info.readsRs2 {
		want++
	}
	if !info.writesRd {
		want-- // e.g. none currently, defensive
	}
	if len(args) != want {
		return fmt.Errorf("expected %d operands, got %d", want, len(args))
	}
	i := 0
	var err error
	if info.writesRd {
		if in.Rd, err = parseRegKind(args[i], info.fpRd); err != nil {
			return err
		}
		i++
	}
	if info.readsRs1 {
		if in.Rs1, err = parseRegKind(args[i], info.fpRs1); err != nil {
			return err
		}
		i++
	}
	if info.readsRs2 {
		if in.Rs2, err = parseRegKind(args[i], info.fpRs2); err != nil {
			return err
		}
	}
	return nil
}

func parseFmtI(in *Inst, args []string) error {
	info := &opTable[in.Op]
	switch {
	case info.isLoad, in.Op == OpJalr:
		// op rd, imm(rs1)
		if len(args) != 2 {
			return fmt.Errorf("expected rd, imm(rs1)")
		}
		rd, err := parseRegKind(args[0], info.fpRd)
		if err != nil {
			return err
		}
		imm, rs1, err := parseMemOperand(args[1])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Imm = rd, rs1, imm
		return nil
	case in.Op == OpEcall, in.Op == OpEbreak, in.Op == OpWfi, in.Op == OpMret:
		if len(args) != 0 {
			return fmt.Errorf("takes no operands")
		}
		return nil
	case in.Op == OpCsrrw, in.Op == OpCsrrs:
		// op rd, csr, rs1
		if len(args) != 3 {
			return fmt.Errorf("expected rd, csr, rs1")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		csr, err := parseImm(args[1])
		if err != nil {
			return err
		}
		rs1, err := parseReg(args[2])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Imm = rd, rs1, int32(csr)
		return nil
	default:
		// op rd, rs1, imm
		if len(args) != 3 {
			return fmt.Errorf("expected rd, rs1, imm")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs1, err := parseReg(args[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return err
		}
		in.Rd, in.Rs1, in.Imm = rd, rs1, int32(imm)
		return nil
	}
}

func parseFmtS(in *Inst, args []string) error {
	info := &opTable[in.Op]
	if len(args) != 2 {
		return fmt.Errorf("expected rs2, imm(rs1)")
	}
	rs2, err := parseRegKind(args[0], info.fpRs2)
	if err != nil {
		return err
	}
	imm, rs1, err := parseMemOperand(args[1])
	if err != nil {
		return err
	}
	in.Rs2, in.Rs1, in.Imm = rs2, rs1, imm
	return nil
}

func parseFmtB(in *Inst, args []string, addr uint32, labels map[string]uint32) error {
	if len(args) != 3 {
		return fmt.Errorf("expected rs1, rs2, target")
	}
	rs1, err := parseReg(args[0])
	if err != nil {
		return err
	}
	rs2, err := parseReg(args[1])
	if err != nil {
		return err
	}
	off, err := parseTarget(args[2], addr, labels)
	if err != nil {
		return err
	}
	in.Rs1, in.Rs2, in.Imm = rs1, rs2, off
	return nil
}

func parseFmtU(in *Inst, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("expected rd, imm20")
	}
	rd, err := parseReg(args[0])
	if err != nil {
		return err
	}
	imm, err := parseImm(args[1])
	if err != nil {
		return err
	}
	if imm > MaxImm20 && imm < 1<<20 {
		// Allow writing the raw 20-bit pattern (e.g. lui x1, 0xfffff).
		imm = int64(signExtend(uint32(imm), 20))
	}
	in.Rd, in.Imm = rd, int32(imm)
	return nil
}

func parseFmtJ(in *Inst, args []string, addr uint32, labels map[string]uint32) error {
	if len(args) != 2 {
		return fmt.Errorf("expected rd, target")
	}
	rd, err := parseReg(args[0])
	if err != nil {
		return err
	}
	off, err := parseTarget(args[1], addr, labels)
	if err != nil {
		return err
	}
	in.Rd, in.Imm = rd, off
	return nil
}

// parseTarget resolves a label or numeric word offset for control flow.
func parseTarget(s string, addr uint32, labels map[string]uint32) (int32, error) {
	if target, ok := labels[s]; ok {
		return wordOffset(addr, target), nil
	}
	v, err := parseImm(s)
	if err != nil {
		return 0, fmt.Errorf("undefined label %q", s)
	}
	return int32(v), nil
}

func wordOffset(from, to uint32) int32 {
	return int32(to-from) / InstBytes
}

// parseMemOperand parses "imm(reg)" or "(reg)".
func parseMemOperand(s string) (int32, uint8, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var imm int64
	if open > 0 {
		var err error
		imm, err = parseImm(s[:open])
		if err != nil {
			return 0, 0, err
		}
	}
	reg, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return int32(imm), reg, nil
}

func parseReg(s string) (uint8, error) { return parseRegKind(s, false) }

func parseRegKind(s string, fp bool) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	prefix := byte('x')
	if fp {
		prefix = 'f'
	}
	if len(s) >= 2 && s[0] == prefix {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < 32 {
			return uint8(n), nil
		}
	}
	if !fp {
		if n, ok := regAliases[s]; ok {
			return n, nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
