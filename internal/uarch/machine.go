package uarch

// TopDown is the level-1/level-2 cycle accounting of the VTune Top-Down
// method: every modeled cycle lands in exactly one bucket.
type TopDown struct {
	RetiringCycles float64

	// Front-end bandwidth.
	FEBandwidthMITE float64
	FEBandwidthDSB  float64
	// Front-end latency.
	FELatICache            float64
	FELatITLB              float64
	FELatMispredictResteer float64
	FELatClearResteer      float64
	FELatUnknownBranch     float64

	BadSpecCycles float64

	BEMemCycles  float64
	BECoreCycles float64
}

// FEBandwidth returns the total front-end bandwidth-bound cycles.
func (t *TopDown) FEBandwidth() float64 { return t.FEBandwidthMITE + t.FEBandwidthDSB }

// FELatency returns the total front-end latency-bound cycles.
func (t *TopDown) FELatency() float64 {
	return t.FELatICache + t.FELatITLB + t.FELatMispredictResteer +
		t.FELatClearResteer + t.FELatUnknownBranch
}

// FrontEndBound returns all front-end-bound cycles.
func (t *TopDown) FrontEndBound() float64 { return t.FEBandwidth() + t.FELatency() }

// BackEndBound returns all back-end-bound cycles.
func (t *TopDown) BackEndBound() float64 { return t.BEMemCycles + t.BECoreCycles }

// Total returns all modeled cycles.
func (t *TopDown) Total() float64 {
	return t.RetiringCycles + t.FrontEndBound() + t.BadSpecCycles + t.BackEndBound()
}

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

// Where a line that missed the L1 was found. A lane prices each level with
// its own latencies; levelStream is a data miss the stream prefetcher had
// already issued.
const (
	levelL2 = iota
	levelLLC
	levelDRAM
	levelStream
)

// Machine is one modeled host machine consuming the hostmodel micro-event
// stream. It implements hostmodel.Sink.
//
// A machine models any number of hosts at once, as lanes, and simulates
// each structure as a Unit shared by every lane whose host has its key
// (UnitKey): what a cache, the uop cache, the predictor or a translation
// unit does depends on the stream and that key alone. Per record each
// distinct unit runs once, and each lane prices its units' outcomes with
// its own scalars — clock, latencies, widths, MLP — into its own Top-Down
// account. Each lane sees, in order, the additions its host would see
// alone, so its Report is bit for bit a one-host machine's (DESIGN §21,
// §23). Lane 0 is the machine's own host: Config, Report, TimeSeconds and
// Cycles read it.
type Machine struct {
	lanes []lane

	// units heads, per kind, the list of the units the lanes use, linked
	// through Unit.next in the order of the first lane that uses each.
	// spare links the units an earlier Reset used and no lane uses now.
	units [numKinds]*Unit
	spare *Unit

	uops uint64
}

// lane is one host of a machine: its config, what is derived from its
// scalars, its units and its cycle account. The fields the record methods
// touch come first.
type lane struct {
	td TopDown

	// lat prices a miss by the level that served it, in cycles.
	lat [levelStream + 1]float64
	// The two divisions FetchBlock would otherwise redo per block, done
	// once: the same expressions on the same operands, so bit-identical.
	dsbSlack  float64 // 1/DSBWidth - 1/IssueWidth
	miteSlack float64 // 1/DecodeWidth - 1/IssueWidth
	// tlbCost prices a first-level TLB miss the STLB serves (0) or that is
	// walked (1): STLBCycles, and STLBCycles + WalkCycles.
	tlbCost [2]float64

	unit [numKinds]*Unit

	cfg Config
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
// NewLanes(cfgs...) would. A nil take builds every unit.
func Assemble(take func(UnitKey) *Unit, cfgs ...Config) *Machine {
	checkLanes(cfgs)
	m := &Machine{}
	m.arm(take, cfgs)
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

// arm gives m one lane per config, each in its initial state, on units in
// their initial state, and zeroes the uop count. Every unit m holds becomes
// a spare first; a lane then uses the unit of its key another lane already
// uses, or a spare, or one from take, or a new one. The lanes of a run with
// at least as many are reused.
func (m *Machine) arm(take func(UnitKey) *Unit, cfgs []Config) {
	m.spareAll()
	m.uops = 0
	if cap(m.lanes) < len(cfgs) {
		m.lanes = make([]lane, len(cfgs))
	}
	m.lanes = m.lanes[:len(cfgs)]
	var tails [numKinds]*Unit
	for i := range m.lanes {
		l := &m.lanes[i]
		cfg := &cfgs[i]
		*l = lane{
			cfg:       *cfg,
			dsbSlack:  1/cfg.DSBWidth - 1/cfg.IssueWidth,
			miteSlack: 1/cfg.DecodeWidth - 1/cfg.IssueWidth,
			lat:       [...]float64{cfg.L2Cycles, cfg.LLCCycles, cfg.DRAMNanos * cfg.FreqGHz, cfg.L2Cycles * 0.3},
			tlbCost:   [2]float64{cfg.STLBCycles, cfg.STLBCycles + cfg.WalkCycles},
		}
		for k := unitKind(0); k < numKinds; k++ {
			key := keyOf(k, cfg)
			u := m.units[k]
			for u != nil && u.key != key {
				u = u.next
			}
			if u == nil {
				u = m.draw(take, key, cfg)
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
			switch k {
			case kindLLC, kindDSB, kindBP, kindXlat:
				u.lanes = append(u.lanes, l)
			}
		}
	}
}

// spareAll makes every unit the lanes use a spare, linked to no other unit
// and no lane.
func (m *Machine) spareAll() {
	for k := range m.units {
		for u := m.units[k]; u != nil; {
			next := u.next
			u.unlink()
			u.next, m.spare = m.spare, u
			u = next
		}
		m.units[k] = nil
	}
}

// draw returns a unit of key, reset and linked to nothing: a spare, one
// from take, or a new one built for cfg.
func (m *Machine) draw(take func(UnitKey) *Unit, key UnitKey, cfg *Config) *Unit {
	var u *Unit
	for at := &m.spare; *at != nil; at = &(*at).next {
		if (*at).key == key {
			u = *at
			*at = u.next
			break
		}
	}
	if u == nil && take != nil {
		u = take(key)
	}
	if u == nil {
		u = newUnit(key, cfg)
	} else {
		u.reset()
	}
	u.next = nil
	return u
}

// Reset re-arms m in place for the hosts cfgs, whatever they are, one lane
// each: afterwards m computes, report for report and lane for lane, what
// NewLanes(cfgs...) would, whatever it ran before and with however many
// lanes. Every unit a lane uses is in its initial state (caches
// invalidated, LRU orders and predictor tables re-initialised, TLBs and the
// BTB emptied, address maps, memos and stream trackers forgotten), every
// counter and Top-Down account is dropped, and everything derived from the
// configs is recomputed. Units of keys no host has any more stay with m as
// spares, so a Reset to hosts m has modeled before allocates no structure.
// Every cfg must validate; Reset panics otherwise, as NewMachine does.
func (m *Machine) Reset(cfgs ...Config) {
	checkLanes(cfgs)
	m.arm(nil, cfgs)
}

// Release hands every unit m holds, in use or spare, to put, and leaves m
// with none and no lanes: m must not be used again until a Reset.
func (m *Machine) Release(put func(*Unit)) {
	m.spareAll()
	for u := m.spare; u != nil; {
		next := u.next
		u.next = nil
		put(u)
		u = next
	}
	m.spare, m.lanes = nil, nil
}

// Config returns the configuration of the machine's first lane.
func (m *Machine) Config() Config { return m.lanes[0].cfg }

// Lanes returns how many hosts the machine models.
func (m *Machine) Lanes() int { return len(m.lanes) }

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
	// Instruction TLB on the first page touched. It comes first: its
	// lookups do not wait on the caches', and no other unit reaches
	// FELatITLB.
	for t := m.units[kindXlat]; t != nil; t = t.next {
		tr := &t.tr
		if page := tr.pageOf(addr, &tr.fetch); !tr.itlb.access(page) {
			w := tr.walks(page)
			for _, l := range t.lanes {
				l.td.FELatITLB += l.tlbCost[w]
			}
		}
	}

	for u := m.units[kindL1I]; u != nil; u = u.next {
		lineB := u.c.geom.LineBytes
		first := addr &^ (lineB - 1)
		last := (addr + uint64(bytes) - 1) &^ (lineB - 1)
		for line := first; line <= last; line += lineB {
			if !u.c.access(line) {
				u.fetchMiss(line)
			}
		}
	}

	// Uop supply: DSB hit streams decoded uops; otherwise the legacy
	// decode pipeline (MITE) limits bandwidth. Moving between the two
	// costs a cycle either way (a host without a DSB never moves). Every
	// lane is below exactly one DSB unit, so its loop does the rest of the
	// per-block accounting too.
	m.uops += uint64(uops)
	n := float64(uops)
	for d := m.units[kindDSB]; d != nil; d = d.next {
		fromDSB := d.hasC && d.c.access(addr&^31)
		switched := fromDSB != d.lastWasDSB
		d.lastWasDSB = fromDSB
		if fromDSB {
			d.uopsDSB += uint64(uops)
		} else {
			d.uopsMITE += uint64(uops)
		}
		for _, l := range d.lanes {
			if fromDSB {
				if s := n * l.dsbSlack; s > 0 {
					l.td.FEBandwidthDSB += s
				}
				if switched {
					l.td.FEBandwidthDSB += 1.0 // MITE→DSB switch penalty
				}
			} else {
				if s := n * l.miteSlack; s > 0 {
					l.td.FEBandwidthMITE += s
				}
				if switched {
					l.td.FEBandwidthMITE += 1.0 // DSB→MITE switch penalty
				}
			}
			l.td.RetiringCycles += n / l.cfg.IssueWidth
			// Execution-port contention: a small per-uop core-bound tax.
			l.td.BECoreCycles += n * 0.005
		}
	}

}

// Branch implements hostmodel.Sink.
func (m *Machine) Branch(pc, target uint64, taken, indirect bool) {
	if indirect {
		for p := m.units[kindBP]; p != nil; p = p.next {
			if !p.bp.indirect(pc, target) {
				// Unknown target: the front end stalls until the branch
				// unit resolves it (a BAClear), with no wrong-path
				// execution.
				for _, l := range p.lanes {
					l.td.FELatUnknownBranch += l.cfg.BAClearCycles
				}
			}
		}
		return
	}
	for p := m.units[kindBP]; p != nil; p = p.next {
		if !p.bp.conditional(pc, taken) {
			// A real misprediction: wasted back-end slots plus the
			// front-end resteer to refill the pipe, and the machine-clear
			// share.
			for _, l := range p.lanes {
				l.td.BadSpecCycles += l.cfg.MispredictCycles
				l.td.FELatMispredictResteer += l.cfg.ResteerCycles
				l.td.FELatClearResteer += 0.2 * l.cfg.ResteerCycles
			}
		}
	}
}

// Data implements hostmodel.Sink. A lane's data TLB cost is added before
// its miss cost, both to BEMemCycles, as a one-host machine adds them.
func (m *Machine) Data(addr uint64, size uint32, write bool) {
	for t := m.units[kindXlat]; t != nil; t = t.next {
		tr := &t.tr
		if page := tr.pageOf(addr, &tr.data); !tr.dtlb.access(page) {
			w := tr.walks(page)
			for _, l := range t.lanes {
				l.td.BEMemCycles += l.tlbCost[w]
			}
		}
	}
	for u := m.units[kindL1D]; u != nil; u = u.next {
		if line := addr &^ (u.c.geom.LineBytes - 1); !u.c.access(line) {
			u.dataMiss(line, write)
		}
	}
}

var _ interface {
	FetchBlock(addr uint64, bytes uint32, uops uint32)
	Branch(pc, target uint64, taken, indirect bool)
	Data(addr uint64, size uint32, write bool)
} = (*Machine)(nil)

// Cycles returns the total modeled host cycles so far of the first lane.
func (m *Machine) Cycles() float64 { return m.lanes[0].td.Total() }

// TimeSeconds returns modeled host seconds (the paper's simulation time
// metric) of the first lane.
func (m *Machine) TimeSeconds() float64 { return m.LaneTimeSeconds(0) }

// LaneTimeSeconds returns modeled host seconds of lane i.
func (m *Machine) LaneTimeSeconds(i int) float64 {
	l := &m.lanes[i]
	return l.td.Total() / (l.cfg.FreqGHz * 1e9)
}
