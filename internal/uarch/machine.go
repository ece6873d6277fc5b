package uarch

// pageRegion maps an address range to a page size.
type pageRegion struct {
	base, end uint64
	pageBytes uint64
}

// pageMemo is a pageRegion as one lookup tests it: addr is in the region
// when addr-base < span (a zero span holds nothing), and its page base is
// addr &^ mask.
type pageMemo struct {
	base, span, mask uint64
}

// Where a line that missed the L1 was found: the column of the LLC unit's
// count of such misses and of a lane's price of one. levelStream is a data
// miss the stream prefetcher had already issued.
const (
	levelL2 = iota
	levelLLC
	levelDRAM
	levelStream
)

// What missed the L1: the row of the LLC unit's count and of a lane's price.
const (
	missFetch = iota
	missLoad
	missStore
)

// Machine is one modeled host machine consuming the hostmodel micro-event
// stream. It implements hostmodel.Sink.
//
// A machine models any number of hosts at once, as lanes, and simulates
// each structure as a Unit shared by every lane whose host has its key
// (UnitKey): what a cache, the uop cache, the predictor or a translation
// unit does depends on the stream and that key alone. Per record each
// distinct unit runs once and counts its outcomes; no lane is touched. A
// lane's Top-Down account is its units' counts times its own prices —
// clock, latencies, widths, MLP — so it is, bit for bit, what a one-host
// machine of its host reports (DESIGN §21, §23). Lane 0 is the machine's own
// host: Report and Cycles read it; Counts reads any lane.
type Machine struct {
	lanes []lane

	// units heads, per kind, the list of the units the lanes use, linked
	// through Unit.next in the order of the first lane that uses each.
	units [numKinds]*Unit
}

// NewMachine builds a host machine model from a validated config.
func NewMachine(cfg Config) *Machine { return NewLanes(cfg) }

// NewLanes builds one machine for several hosts, one lane each, in order.
// Every config must validate; NewLanes panics otherwise, as NewMachine does
// on a config that does not validate.
func NewLanes(cfgs ...Config) *Machine { return Assemble(nil, cfgs...) }

// Assemble is NewLanes drawing on a keeper of idle units: each unit the
// machine needs is taken from take (which returns nil when it has none of
// that key) before one is built, and reset, so the machine computes what
// NewLanes(cfgs...) would. A nil take builds every unit. A lane uses the
// unit of its key another lane already uses, or a drawn one.
func Assemble(take func(UnitKey) *Unit, cfgs ...Config) *Machine {
	checkLanes(cfgs)
	m := &Machine{lanes: make([]lane, len(cfgs))}
	var tails [numKinds]*Unit
	for i := range m.lanes {
		l := &m.lanes[i]
		cfg := &cfgs[i]
		*l = newLane(cfg)
		for k := unitKind(0); k < numKinds; k++ {
			key := keyOf(k, cfg)
			u := m.units[k]
			for u != nil && u.key != key {
				u = u.next
			}
			if u == nil {
				u = draw(take, key, cfg)
				if tails[k] == nil {
					m.units[k] = u
				} else {
					tails[k].next = u
				}
				tails[k] = u
				// A new L2 is below this lane's L1s, a new LLC below its
				// L2; a unit already in use is below them already, since
				// its key holds theirs.
				switch k {
				case kindL2:
					l.unit[kindL1I].down = append(l.unit[kindL1I].down, u)
					l.unit[kindL1D].down = append(l.unit[kindL1D].down, u)
				case kindLLC:
					l.unit[kindL2].down = append(l.unit[kindL2].down, u)
				}
			}
			l.unit[k] = u
		}
	}
	return m
}

// checkLanes panics unless there is at least one config and every config
// validates.
func checkLanes(cfgs []Config) {
	if len(cfgs) == 0 {
		panic("uarch: a machine needs at least one host")
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			panic(err)
		}
	}
}

// draw returns a unit of key, reset and linked to nothing: one from take,
// or a new one built for cfg.
func draw(take func(UnitKey) *Unit, key UnitKey, cfg *Config) *Unit {
	var u *Unit
	if take != nil {
		u = take(key)
	}
	if u == nil {
		return newUnit(key, cfg)
	}
	u.reset()
	return u
}

// Release hands every unit m holds to put, linked to no other unit, and
// leaves m with none and no lanes: m must not be used again.
func (m *Machine) Release(put func(*Unit)) {
	for k := range m.units {
		for u := m.units[k]; u != nil; {
			next := u.next
			u.unlink()
			u.next = nil
			put(u)
			u = next
		}
		m.units[k] = nil
	}
	m.lanes = nil
}

// MapText registers the simulator's code segment, applying each
// translation unit's huge-page mode.
func (m *Machine) MapText(base, end uint64) {
	for t := m.units[kindXlat]; t != nil; t = t.next {
		t.tr.mapText(base, end)
	}
}

// MapData registers a data range with each translation unit's base page
// size.
func (m *Machine) MapData(base, end uint64) {
	for t := m.units[kindXlat]; t != nil; t = t.next {
		t.tr.addRegion(pageRegion{base, end, t.tr.pageBytes})
	}
}

// FetchBlock implements hostmodel.Sink.
func (m *Machine) FetchBlock(addr uint64, bytes uint32, uops uint32) {
	// Instruction TLB on the first page touched; the STLB on an iTLB miss.
	for t := m.units[kindXlat]; t != nil; t = t.next {
		tr := &t.tr
		if page := tr.pageOf(addr, &tr.fetch); !tr.itlb.access(page) && !tr.stlb.access(page) {
			tr.itlb.Walks++
		}
	}

	for u := m.units[kindL1I]; u != nil; u = u.next {
		lineB := u.c.geom.LineBytes
		first := addr &^ (lineB - 1)
		last := (addr + uint64(bytes) - 1) &^ (lineB - 1)
		for line := first; line <= last; line += lineB {
			if !u.c.access(line) {
				u.miss(line, missFetch, false)
			}
		}
	}

	// Uop supply: DSB hit streams decoded uops; otherwise the legacy
	// decode pipeline (MITE) limits bandwidth. Moving between the two
	// costs a cycle either way (a host without a DSB never moves). Counted
	// by arithmetic on the hit bit, which is as noisy as the modeled
	// program's code layout: a host branch on it would mispredict.
	for d := m.units[kindDSB]; d != nil; d = d.next {
		hit := b2u64(d.hasC && d.c.access(addr&^31))
		d.dsb.UopsDSB += uint64(uops) * hit
		d.dsb.UopsMITE += uint64(uops) * (1 - hit)
		d.dsb.ToDSB += hit &^ d.lastDSB
		d.dsb.ToMITE += d.lastDSB &^ hit
		d.lastDSB = hit
	}
}

// Branch implements hostmodel.Sink. Each predictor counts its mispredicts
// and its unknown indirect targets (BAClears).
func (m *Machine) Branch(pc, target uint64, taken, indirect bool) {
	for p := m.units[kindBP]; p != nil; p = p.next {
		if indirect {
			p.bp.indirect(pc, target)
		} else {
			p.bp.conditional(pc, taken)
		}
	}
}

// Data implements hostmodel.Sink.
func (m *Machine) Data(addr uint64, size uint32, write bool) {
	for t := m.units[kindXlat]; t != nil; t = t.next {
		tr := &t.tr
		if page := tr.pageOf(addr, &tr.data); !tr.dtlb.access(page) && !tr.stlb.access(page) {
			tr.dtlb.Walks++
		}
	}
	row := missLoad
	if write {
		row = missStore
	}
	for u := m.units[kindL1D]; u != nil; u = u.next {
		if line := addr &^ (u.c.geom.LineBytes - 1); !u.c.access(line) {
			u.miss(line, row, u.streamHit(line))
		}
	}
}

// Counts returns what the units of lane i have counted so far.
func (m *Machine) Counts(i int) Counts {
	u := &m.lanes[i].unit
	c := Counts{
		L1I: u[kindL1I].c.CacheCounts, L1D: u[kindL1D].c.CacheCounts, L2: u[kindL2].c.CacheCounts,
		ITLB: u[kindXlat].tr.itlb.TLBCounts, DTLB: u[kindXlat].tr.dtlb.TLBCounts,
		LLC: u[kindLLC].llc, DSB: u[kindDSB].dsb, Branch: u[kindBP].bp.BranchCounts,
		OccupancyBytes: u[kindL2].c.OccupancyBytes(),
	}
	if u[kindLLC].hasC {
		c.OccupancyBytes = u[kindLLC].c.OccupancyBytes()
	}
	return c
}

// Cycles returns the total modeled host cycles so far of the first lane:
// its Report's Cycles, priced from its live units' counts without a copy.
func (m *Machine) Cycles() float64 {
	l := &m.lanes[0]
	u := &l.unit
	var td TopDown
	l.account(&td, &u[kindDSB].dsb, &u[kindLLC].llc, &u[kindBP].bp.BranchCounts,
		&u[kindXlat].tr.itlb.TLBCounts, &u[kindXlat].tr.dtlb.TLBCounts)
	return td.Total()
}

// Report prices the counts of the machine's first lane.
func (m *Machine) Report() Report {
	c := m.Counts(0)
	return Price(&m.lanes[0].cfg, &c)
}
