package uarch

import "unsafe"

// AddrBits is the width of the addresses a cache is given, which
// hostmodel.AddrLimit must bound.
const AddrBits = addrBits

// UnitOf returns lane 0's unit of kind, named as UnitKey.Kind names it.
func (m *Machine) UnitOf(kind string) *Unit {
	for k, name := range kindNames {
		if name == kind {
			return m.lanes[0].unit[k]
		}
	}
	panic("uarch: no unit kind " + kind)
}

// Sparse reports whether u has a cache and keeps its rows sparse.
func (u *Unit) Sparse() bool { return u.hasC && u.c.rowOf != nil }

// HeldBytes is what u keeps of its structures, counted by capacity: a dense
// cache's keys and order words, a sparse one's set index and the row chunks
// of its classes, and a predictor's tables and BTB. The TLBs' index is not
// counted.
func (u *Unit) HeldBytes() int {
	c := &u.c
	n := 8*cap(c.keys) + 8*cap(c.order) + 4*cap(c.rowOf) + cap(c.classes)*int(unsafe.Sizeof(rowClass{}))
	for _, cl := range c.classes {
		n += cap(cl.chunks) * int(unsafe.Sizeof(sparseChunk{}))
		for _, ch := range cl.chunks {
			n += 8*cap(ch.order) + 4*cap(ch.keys)
		}
	}
	b := &u.bp
	n += cap(b.bimodal) + cap(b.global) + cap(b.choice) + cap(b.btb)*int(unsafe.Sizeof(b.btb[0]))
	return n
}
