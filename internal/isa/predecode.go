package isa

import (
	"encoding/binary"
	"math/bits"
)

// Decoded is a program image decoded once: for each whole word of the image
// that Predecode keeps, the word and its Inst. It is read-only after
// Predecode, so any number of cores and guests may share one.
type Decoded struct {
	base    uint32
	entries []decodedWord
}

type decodedWord struct {
	w  Word
	in Inst
}

// Predecode decodes the whole words of p's image, data words included, up
// to the last one that decodes to a valid opcode: the zero-filled data an
// image usually ends with is left out of the table, and decodes afresh in
// the unlikely event that it is fetched.
func Predecode(p *Program) *Decoded {
	n := len(p.Data) / InstBytes
	for n > 0 && !Decode(wordAt(p.Data, n-1)).Op.Valid() {
		n--
	}
	d := &Decoded{base: p.Base, entries: make([]decodedWord, n)}
	for i := range d.entries {
		w := wordAt(p.Data, i)
		d.entries[i] = decodedWord{w, Decode(w)}
	}
	return d
}

func wordAt(data []byte, i int) Word {
	return Word(binary.LittleEndian.Uint32(data[i*InstBytes:]))
}

// Decode returns what the word w fetched at pc decodes to. When pc is a
// word-aligned address of the image and w is the word the image holds
// there, that is the stored Inst, which is shared and must not be written
// through. Otherwise — text written since it was loaded, code outside the
// image, a nil table — w is decoded into *scratch, and scratch is returned.
// Decode is a pure function of the word, so the two agree by construction.
//
// The result is a pointer because an Inst returned by value crosses the
// call in five registers and is stored back a byte at a time, and the word
// load that copies it then stalls on those stores. Returned by value, and
// again by the CPU models' decode step, it cost an Atomic guest about a
// fifth of its time.
func (d *Decoded) Decode(pc uint32, w Word, scratch *Inst) *Inst {
	if d != nil {
		// The rotation sends a misaligned offset's low bits to the top, past
		// any table, so one bounds check covers below, above and misaligned.
		if i := bits.RotateLeft32(pc-d.base, -2); i < uint32(len(d.entries)) && d.entries[i].w == w {
			return &d.entries[i].in
		}
	}
	*scratch = Decode(w)
	return scratch
}
