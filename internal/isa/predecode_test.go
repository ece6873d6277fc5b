package isa_test

import (
	"encoding/binary"
	"testing"

	"gem5prof/internal/isa"
	"gem5prof/internal/workloads"
)

// decodeAt is d.Decode through a scratch Inst, and whether the result came
// from the table.
func decodeAt(d *isa.Decoded, pc uint32, w isa.Word) (in isa.Inst, hit bool) {
	var scratch isa.Inst
	p := d.Decode(pc, w, &scratch)
	return *p, p != &scratch
}

func wordAt(p *isa.Program, off int) isa.Word {
	return isa.Word(binary.LittleEndian.Uint32(p.Data[off:]))
}

// tableEnd is the offset past the last whole word of p's image that
// decodes to a valid opcode: the end of what Predecode keeps.
func tableEnd(p *isa.Program) int {
	end := len(p.Data) / isa.InstBytes * isa.InstBytes
	for end > 0 && !isa.Decode(wordAt(p, end-isa.InstBytes)).Op.Valid() {
		end -= isa.InstBytes
	}
	return end
}

// TestPredecodeMatchesDecode: for every word of every registered workload's
// image — at its default scale, at an eighth of it (the size quick runs
// use), and at the scales the benchmark runs — the table hands back what
// isa.Decode makes of the word: from the table up to the image's last valid
// instruction word, and decoded afresh in the invalid tail after it.
func TestPredecodeMatchesDecode(t *testing.T) {
	extra := map[string][]int{"sieve": {32768}, "water_nsquared": {40}}
	for _, name := range workloads.Names() {
		spec, _ := workloads.ByName(name)
		for _, scale := range append([]int{spec.DefaultScale, spec.DefaultScale / 8}, extra[name]...) {
			p, _, err := spec.Build(scale)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, scale, err)
			}
			d, end := isa.Predecode(p), tableEnd(p)
			for off := 0; off+isa.InstBytes <= len(p.Data); off += isa.InstBytes {
				pc, w := p.Base+uint32(off), wordAt(p, off)
				if in, hit := decodeAt(d, pc, w); in != isa.Decode(w) || hit != (off < end) {
					t.Fatalf("%s@%d pc %#x word %#x: got %+v (hit %v), Decode gives %+v",
						name, scale, pc, w, in, hit, isa.Decode(w))
				}
			}
		}
	}
}

// TestPredecodeFallsBack: a word the image does not hold at pc — written
// into text since, fetched below or above the image, or at a pc not aligned
// with it — and a nil table all decode the fetched word afresh.
func TestPredecodeFallsBack(t *testing.T) {
	p, err := isa.Assemble(".org 0x1000\n_start:\n  addi a0, a0, 1\n  bne a0, a1, _start\n  ecall\n")
	if err != nil {
		t.Fatal(err)
	}
	d := isa.Predecode(p)
	store := isa.MustEncode(isa.Inst{Op: isa.OpSw, Rs1: 2, Rs2: 3, Imm: 8})
	end := p.Base + uint32(len(p.Data))
	cases := []struct {
		name string
		d    *isa.Decoded
		pc   uint32
		w    isa.Word
	}{
		{"written text", d, p.Base + 4, store},
		{"below", d, p.Base - isa.InstBytes, wordAt(p, 0)},
		{"above", d, end, wordAt(p, 0)},
		{"far above", d, end + 0x10000, wordAt(p, 0)},
		{"misaligned+1", d, p.Base + 1, wordAt(p, 0)},
		{"misaligned+2", d, p.Base + 2, wordAt(p, 0)},
		{"misaligned+3", d, p.Base + 3, wordAt(p, 0)},
		{"nil table", nil, p.Base, wordAt(p, 0)},
	}
	for _, c := range cases {
		if in, hit := decodeAt(c.d, c.pc, c.w); in != isa.Decode(c.w) || hit {
			t.Errorf("%s: pc %#x word %#x: got %+v (hit %v), Decode gives %+v",
				c.name, c.pc, c.w, in, hit, isa.Decode(c.w))
		}
	}
	// The image's own words still come from the table.
	if _, hit := decodeAt(d, end-isa.InstBytes, wordAt(p, len(p.Data)-isa.InstBytes)); !hit {
		t.Error("last word of the image missed the table")
	}
}

// FuzzPredecode: over random images, bases, pcs and words, the table agrees
// with isa.Decode, and serves exactly the fetches of a word the image holds
// at an aligned pc of it, short of the invalid tail.
func FuzzPredecode(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(0x1000), uint32(0x1004), uint32(0x08070605))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(0x1000), uint32(0x1008), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(0xfffffffc), uint32(0xfffffffc), uint32(0xffffffff))
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, base, pc, w uint32) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		p := &isa.Program{Base: base, Data: data}
		in, hit := decodeAt(isa.Predecode(p), pc, isa.Word(w))
		if in != isa.Decode(isa.Word(w)) {
			t.Fatalf("pc %#x word %#x: got %+v, Decode gives %+v", pc, w, in, isa.Decode(isa.Word(w)))
		}
		off := pc - base
		held := off%isa.InstBytes == 0 && int64(off) < int64(tableEnd(p)) && wordAt(p, int(off)) == isa.Word(w)
		if hit != held {
			t.Fatalf("base %#x pc %#x word %#x: table hit %v, image holds the word there %v", base, pc, w, hit, held)
		}
	})
}
