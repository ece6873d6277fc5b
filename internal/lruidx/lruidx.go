// Package lruidx provides an exact-LRU replacement index over a fixed
// number of slots with O(1) lookup, touch, and insert-with-eviction.
//
// It replaces the O(entries) linear scans that fully-associative LRU
// structures (TLBs) otherwise pay on every access: a 1.5k-entry STLB
// scanned per lookup was the single hottest path of the whole
// co-simulation. The index keeps the exact same observable behaviour as
// the scan — a key hits iff it is resident, and the victim when full is
// always the least-recently-used key — so replacement decisions are
// bit-identical (proven by the differential tests in internal/uarch and
// internal/mem).
//
// Internals: an intrusive doubly-linked list over the slot file orders
// keys from LRU (head) to MRU (tail), and an open-addressed hash table
// with linear probing and backward-shift deletion maps key → slot. The
// table is sized to at most 50% load so probe chains stay short and
// deletion terminates.
package lruidx

// slotEnt is one resident key with its position in the LRU list.
type slotEnt struct {
	key        uint64
	prev, next int32
}

// tableEnt is one open-addressing cell of the key → slot table.
type tableEnt struct {
	key  uint64
	slot int32
	used bool
}

// Index is an exact-LRU index over a fixed slot file. The zero value is
// not usable; construct with New.
type Index struct {
	slots      []slotEnt
	head, tail int32 // LRU .. MRU chain ends; -1 when empty
	nextFree   int32 // slots fill top-down; -1 once every slot is resident

	table      []tableEnt
	tableShift uint // 64 - log2(len(table)), for multiplicative hashing
	mask       uint64
}

// New builds an index with n slots.
func New(n int) *Index {
	if n <= 0 {
		panic("lruidx: need at least one slot")
	}
	tableLen := 1
	for tableLen < 2*n {
		tableLen <<= 1
	}
	shift := uint(64)
	for l := tableLen; l > 1; l >>= 1 {
		shift--
	}
	return &Index{
		slots:      make([]slotEnt, n),
		head:       -1,
		tail:       -1,
		nextFree:   int32(n - 1),
		table:      make([]tableEnt, tableLen),
		tableShift: shift,
		mask:       uint64(tableLen - 1),
	}
}

// Reset empties the index in place. The slot file needs no clearing: slots
// fill top-down again and Insert writes every field of the one it takes, so
// an index that was Reset behaves exactly like a new one of the same size.
func (ix *Index) Reset() {
	ix.head, ix.tail = -1, -1
	ix.nextFree = int32(len(ix.slots) - 1)
	clear(ix.table)
}

// Cap returns the slot count.
func (ix *Index) Cap() int { return len(ix.slots) }

// Len returns how many keys are resident.
func (ix *Index) Len() int { return len(ix.slots) - 1 - int(ix.nextFree) }

// Key returns the key resident in slot (tests and debugging).
func (ix *Index) Key(slot int32) uint64 { return ix.slots[slot].key }

// home is the preferred table position of key (Fibonacci hashing: the
// high bits of the product are well mixed even for page-aligned keys).
func (ix *Index) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> ix.tableShift
}

// Lookup returns the slot holding key, if resident. It does not touch
// the LRU order.
func (ix *Index) Lookup(key uint64) (int32, bool) {
	for i := ix.home(key); ix.table[i].used; i = (i + 1) & ix.mask {
		if ix.table[i].key == key {
			return ix.table[i].slot, true
		}
	}
	return 0, false
}

// Touch marks slot most-recently-used.
func (ix *Index) Touch(slot int32) {
	if ix.tail == slot {
		return
	}
	ix.unlink(slot)
	ix.pushMRU(slot)
}

// Insert makes key resident and most-recently-used. When every slot is
// occupied it evicts the least-recently-used key and returns it. The
// caller must ensure key is not already resident (Lookup first).
func (ix *Index) Insert(key uint64) (slot int32, evicted uint64, wasEvict bool) {
	if ix.nextFree >= 0 {
		slot = ix.nextFree
		ix.nextFree--
	} else {
		slot = ix.head
		evicted = ix.slots[slot].key
		wasEvict = true
		ix.tableDelete(evicted)
		ix.unlink(slot)
	}
	ix.slots[slot].key = key
	ix.pushMRU(slot)
	ix.tableInsert(key, slot)
	return slot, evicted, wasEvict
}

func (ix *Index) unlink(s int32) {
	e := &ix.slots[s]
	if e.prev >= 0 {
		ix.slots[e.prev].next = e.next
	} else {
		ix.head = e.next
	}
	if e.next >= 0 {
		ix.slots[e.next].prev = e.prev
	} else {
		ix.tail = e.prev
	}
}

func (ix *Index) pushMRU(s int32) {
	e := &ix.slots[s]
	e.prev, e.next = ix.tail, -1
	if ix.tail >= 0 {
		ix.slots[ix.tail].next = s
	} else {
		ix.head = s
	}
	ix.tail = s
}

func (ix *Index) tableInsert(key uint64, slot int32) {
	i := ix.home(key)
	for ix.table[i].used {
		i = (i + 1) & ix.mask
	}
	ix.table[i] = tableEnt{key: key, slot: slot, used: true}
}

// tableDelete removes key with backward-shift deletion, so probe chains
// stay tombstone-free and lookups never degrade.
func (ix *Index) tableDelete(key uint64) {
	i := ix.home(key)
	for ix.table[i].key != key || !ix.table[i].used {
		i = (i + 1) & ix.mask
	}
	j := i
	for {
		j = (j + 1) & ix.mask
		if !ix.table[j].used {
			break
		}
		k := ix.home(ix.table[j].key)
		// table[j] may move into the hole at i only if its home does not
		// lie cyclically inside (i, j] — otherwise probing would no
		// longer find it.
		if (j > i && (k <= i || k > j)) || (j < i && (k <= i && k > j)) {
			ix.table[i] = ix.table[j]
			i = j
		}
	}
	ix.table[i].used = false
}
