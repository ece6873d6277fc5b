package uarch

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// Keeper holds released units by key, as core's unit store does: the tests
// move a machine's units to other hosts through Release and
// Assemble(keeper.Take, ...).
type Keeper map[UnitKey][]*Unit

// Put keeps u.
func (k Keeper) Put(u *Unit) { k[u.key] = append(k[u.key], u) }

// Take returns a kept unit of key, the last one kept, or nil.
func (k Keeper) Take(key UnitKey) *Unit {
	us := k[key]
	if len(us) == 0 {
		return nil
	}
	k[key] = us[:len(us)-1]
	return us[len(us)-1]
}

// Reassemble releases m's units to k and assembles a machine for cfgs from
// them.
func (k Keeper) Reassemble(m *Machine, cfgs ...Config) *Machine {
	m.Release(k.Put)
	return Assemble(k.Take, cfgs...)
}

func testConfig() Config {
	return Config{
		Name:          "test",
		FreqGHz:       3.0,
		PageBytes:     4096,
		HugePageBytes: 2 << 20,
		THPCoverage:   0.5,
		L1I:           CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L1D:           CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:            CacheGeom{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64},
		LLC:           CacheGeom{SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
		L2Cycles:      14, LLCCycles: 40, DRAMNanos: 90,
		PeakDRAMBytesPerSec: 100e9,
		ITLBEntries:         64, DTLBEntries: 64, STLBEntries: 1024,
		STLBCycles: 8, WalkCycles: 40,
		IssueWidth: 4, DecodeWidth: 3, DSBUops: 1536, DSBWidth: 6,
		BPTableEntries: 4096, BTBEntries: 1024,
		MispredictCycles: 15, ResteerCycles: 8, BAClearCycles: 9,
		MLPOverlap: 0.7,
	}
}

// TestSparseGeometryPastTheRowIds: a sparse cache's set index names a row by
// its class and its number in two bits and thirty, so a geometry of more
// sets than that can number — here 2^30 one-way sets of 2-byte lines, whose
// index alone would be 4 GB — is refused by name, by Validate and by
// newCache before anything is allocated; and the largest it can number, 2^29
// sets, is a valid geometry.
func TestSparseGeometryPastTheRowIds(t *testing.T) {
	g := CacheGeom{SizeBytes: 1 << 31, Ways: 1, LineBytes: 2}
	const want = "2147483648 B of 1-way sets of 2 B lines is 1073741824 sets, more than the 536870912 a sparse cache's rows can number"
	cfg := testConfig()
	cfg.LLC = g
	if err := cfg.Validate(); err == nil || err.Error() != "uarch: test: LLC: "+want {
		t.Errorf("Validate = %v, want uarch: test: LLC: %s", err, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if msg := recover(); msg != "uarch: cache: "+want {
				t.Errorf("newCache recovered %v, want uarch: cache: %s", msg, want)
			}
		}()
		newCache(g)
	}()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("refusing the geometry allocated %d bytes", n)
	}
	if msg := (CacheGeom{SizeBytes: 1 << 30, Ways: 1, LineBytes: 2}).check(); msg != "" {
		t.Errorf("2^29 sets refused: %s", msg)
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if g.Sets() != 64 {
		t.Fatalf("sets = %d", g.Sets())
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	c := newCache(CacheGeom{SizeBytes: 1024, Ways: 2, LineBytes: 64}) // 8 sets
	if c.access(0) {
		t.Fatal("cold access hit")
	}
	if !c.access(0) || !c.access(63) {
		t.Fatal("warm access missed")
	}
	// Fill set 0 (stride 8*64=512) beyond 2 ways.
	c.access(512)
	c.access(0) // touch 0: 512 is now LRU
	c.access(1024)
	if c.access(512) {
		t.Fatal("LRU line survived")
	}
	// Filling 512 evicted the then-LRU line 0; 1024 must still be resident.
	if !c.access(1024) {
		t.Fatal("MRU line evicted")
	}
	if c.OccupancyBytes() == 0 || c.Misses == 0 {
		t.Fatal("accounting empty")
	}
	if !c.probe(512) || c.probe(0xdeadbe00) {
		t.Fatal("probe wrong")
	}
}

// TestCacheWorkingSetInvariant: a working set of at most Ways blocks mapping
// to one set never re-misses (property over random access sequences), in a
// dense cache and in a sparse one.
func TestCacheWorkingSetInvariant(t *testing.T) {
	f := func(seq []uint8) bool {
		g := CacheGeom{SizeBytes: 4096, Ways: 4, LineBytes: 64} // 16 sets, 1 KB a way
		if len(seq)%2 == 1 {
			g.SizeBytes <<= 8 // 4096 sets, 64 KB a way
		}
		c := newCache(g)
		way := g.SizeBytes / 4
		blocks := []uint64{0, way, 2 * way, 3 * way} // all set 0
		seen := map[uint64]bool{}
		cold := 0
		for _, s := range seq {
			b := blocks[int(s)%len(blocks)]
			if !seen[b] {
				seen[b] = true
				cold++
			}
			c.access(b)
		}
		return int(c.Misses) == cold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	for _, g := range []CacheGeom{
		{SizeBytes: 1000, Ways: 2, LineBytes: 64},
		{SizeBytes: 4096, Ways: 3, LineBytes: 64},
		{SizeBytes: 4096, Ways: 2, LineBytes: 60},
		{SizeBytes: 4096, Ways: 0, LineBytes: 64},  // used to divide by zero
		{SizeBytes: 4096, Ways: 2, LineBytes: 0},   // likewise
		{SizeBytes: 4096, Ways: 32, LineBytes: 64}, // beyond the packed order word
		{SizeBytes: 64, Ways: 2, LineBytes: 1},     // a key needs a spare bit
		{SizeBytes: 0, Ways: 2, LineBytes: 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v did not panic", g)
				}
			}()
			newCache(g)
		}()
	}
}

func TestTLB(t *testing.T) {
	tl := newTLB(2)
	if tl.access(1) {
		t.Fatal("cold hit")
	}
	if !tl.access(1) {
		t.Fatal("warm miss")
	}
	tl.access(2)
	tl.access(1) // 2 becomes LRU
	tl.access(3) // evicts 2
	if tl.access(2) {
		t.Fatal("LRU page survived")
	}
	if tl.Misses == 0 || tl.Misses > tl.Accesses {
		t.Fatalf("%d misses of %d accesses", tl.Misses, tl.Accesses)
	}
}

func TestGsharePredictorLearns(t *testing.T) {
	g := newGshare(1024, 256)
	// Strongly biased branch: after warmup, always predicted.
	for i := 0; i < 64; i++ {
		g.conditional(0x1000, true)
	}
	before := g.Mispredicts
	for i := 0; i < 100; i++ {
		g.conditional(0x1000, true)
	}
	if g.Mispredicts != before {
		t.Fatalf("biased branch still mispredicting (%d new)", g.Mispredicts-before)
	}
}

// TestUopSupplyAccounting runs one fetch sequence through the DSB unit —
// MITE while cold, then DSB, MITE, DSB — and checks the uop split and the
// switches exactly; a host without a DSB counts every uop as MITE and never
// switches.
func TestUopSupplyAccounting(t *testing.T) {
	const a, b = 0x40_1000, 0x40_2000 // two 32-byte windows
	fetch := []struct {
		addr uint64
		uops uint32
	}{{a, 3}, {a, 5}, {b, 7}, {a, 11}}
	for _, tc := range []struct {
		dsbUops int
		want    DSBCounts
	}{
		{1536, DSBCounts{UopsDSB: 5 + 11, UopsMITE: 3 + 7, ToDSB: 2, ToMITE: 1}},
		{0, DSBCounts{UopsMITE: 3 + 5 + 7 + 11}},
	} {
		cfg := testConfig()
		cfg.DSBUops = tc.dsbUops
		if tc.dsbUops == 0 {
			cfg.DSBWidth = 0
		}
		m := NewMachine(cfg)
		for _, f := range fetch {
			m.FetchBlock(f.addr, 16, f.uops)
		}
		if got := m.Counts(0).DSB; got != tc.want {
			t.Errorf("DSBUops %d: %+v, want %+v", tc.dsbUops, got, tc.want)
		}
	}
}

// TestBTBAccounting: an indirect branch that finds its BTB entry invalid
// (even one whose zero tag and target are its own), holding another pc, or
// holding another target counts one clear and one mispredict; one that finds
// its own pc and target counts neither.
func TestBTBAccounting(t *testing.T) {
	g := newGshare(1024, 256)
	const pc, alias = 0x2002, 0x2002 + 256<<1 // one BTB entry, not pc 0's
	for i, step := range []struct {
		name       string
		pc, target uint64
		hit        bool
	}{
		{"invalid entry", 0, 0, false},
		{"hit", 0, 0, true},
		{"invalid entry", pc, 0x3000, false},
		{"hit", pc, 0x3000, true},
		{"target mismatch", pc, 0x4000, false},
		{"hit", pc, 0x4000, true},
		{"tag mismatch", alias, 0x4000, false},
		{"hit", alias, 0x4000, true},
	} {
		before := g.BranchCounts
		miss := b2u64(!step.hit)
		want := BranchCounts{Lookups: before.Lookups + 1, Mispredicts: before.Mispredicts + miss,
			IndirectClears: before.IndirectClears + miss}
		if hit := g.indirect(step.pc, step.target); hit != step.hit || g.BranchCounts != want {
			t.Errorf("step %d (%s): hit=%v, counts %+v; want hit=%v, %+v", i, step.name, hit, g.BranchCounts, step.hit, want)
		}
	}
}

func TestTopDownBucketsSumToTotal(t *testing.T) {
	td := TopDown{
		RetiringCycles: 10, FEBandwidthMITE: 1, FEBandwidthDSB: 2,
		FELatICache: 3, FELatITLB: 4, FELatMispredictResteer: 5,
		FELatClearResteer: 6, FELatUnknownBranch: 7,
		BadSpecCycles: 8, BEMemCycles: 9, BECoreCycles: 11,
	}
	want := 10.0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 11
	if td.Total() != want {
		t.Fatalf("total = %v, want %v", td.Total(), want)
	}
	if td.FrontEndBound() != td.FELatency()+td.FEBandwidth() {
		t.Fatal("front-end split inconsistent")
	}
}

func TestMachineFetchAndReport(t *testing.T) {
	m := NewMachine(testConfig())
	m.MapText(0x40_0000, 0x80_0000)
	for i := 0; i < 1000; i++ {
		m.FetchBlock(0x40_0000+uint64(i%10)*64, 32, 8)
	}
	r := m.Report()
	if r.Uops != 8000 {
		t.Fatalf("uops = %d", r.Uops)
	}
	if r.Cycles <= 0 || r.TimeSeconds <= 0 {
		t.Fatal("no cycles")
	}
	// Breakdown fractions must sum to ~1.
	l1 := r.Level1
	sum := l1.Retiring + l1.FrontEndBound + l1.BadSpeculation + l1.BackEndBound
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("level-1 fractions sum to %v", sum)
	}
	// Hot loop: almost everything should come from the DSB.
	if r.DSBCoverage < 0.9 {
		t.Fatalf("hot loop DSB coverage = %v", r.DSBCoverage)
	}
	if !strings.Contains(r.String(), "Top-Down") {
		t.Fatal("String() malformed")
	}
}

func TestMachineColdCodeThrashesDSB(t *testing.T) {
	m := NewMachine(testConfig())
	// Walk 1MB of code cyclically: reuse distance >> DSB reach.
	for pass := 0; pass < 4; pass++ {
		for off := uint64(0); off < 1<<20; off += 32 {
			m.FetchBlock(0x40_0000+off, 32, 8)
		}
	}
	r := m.Report()
	if r.DSBCoverage > 0.05 {
		t.Fatalf("cyclic walk should thrash the DSB, coverage %v", r.DSBCoverage)
	}
	if r.Level1.MITE <= r.Level1.DSB {
		t.Fatal("MITE should dominate bandwidth-bound cycles")
	}
}

func TestMachineITLBAndHugePages(t *testing.T) {
	walk := func(hp HugePageMode) float64 {
		cfg := testConfig()
		cfg.HugePages = hp
		cfg.THPCoverage = 1.0
		m := NewMachine(cfg)
		m.MapText(0x40_0000, 0x40_0000+64<<20)
		// Touch 2048 distinct 4KB pages repeatedly: far beyond iTLB+STLB.
		for pass := 0; pass < 3; pass++ {
			for p := uint64(0); p < 2048; p++ {
				m.FetchBlock(0x40_0000+p*4096, 32, 4)
			}
		}
		return m.Report().TopDown.FELatITLB
	}
	base := walk(PagesBase)
	thp := walk(PagesTHP)
	ehp := walk(PagesEHP)
	if base <= 0 {
		t.Fatal("no iTLB pressure with base pages")
	}
	if thp > base*0.4 || ehp > base*0.4 {
		t.Fatalf("huge pages should slash iTLB stalls: base %.0f thp %.0f ehp %.0f", base, thp, ehp)
	}
}

func TestMachineBranchAccounting(t *testing.T) {
	m := NewMachine(testConfig())
	// Unknown-target indirect branches charge FE latency, not bad-spec.
	for i := 0; i < 100; i++ {
		m.Branch(0x1000+uint64(i)*8, uint64(0x9000+i*64), true, true)
	}
	r := m.Report()
	if r.TopDown.FELatUnknownBranch == 0 {
		t.Fatal("no BAClear cost")
	}
	if r.TopDown.BadSpecCycles != 0 {
		t.Fatal("indirect misses should not be bad speculation")
	}
	// Noisy conditional branches create bad speculation.
	m2 := NewMachine(testConfig())
	for i := 0; i < 2000; i++ {
		m2.Branch(0x1000, 0x2000, i%3 == 0, false)
	}
	if m2.Report().TopDown.BadSpecCycles == 0 {
		t.Fatal("no mispredict cost")
	}
}

func TestMachineDataPathAndStreams(t *testing.T) {
	cfg := testConfig()
	m := NewMachine(cfg)
	m.MapData(0x10_0000, 0x10_0000+64<<20)
	// Sequential sweep: the stream prefetcher should hide most of it.
	for i := uint64(0); i < 20000; i++ {
		m.Data(0x10_0000+i*64, 8, false)
	}
	seq := m.Report().TopDown.BEMemCycles

	m2 := NewMachine(cfg)
	m2.MapData(0x10_0000, 0x10_0000+64<<20)
	rng := uint64(12345)
	for i := 0; i < 20000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		m2.Data(0x10_0000+(rng>>11)%(64<<20), 8, false)
	}
	rand := m2.Report().TopDown.BEMemCycles
	if seq >= rand/4 {
		t.Fatalf("sequential (%0.f) should be far cheaper than random (%0.f)", seq, rand)
	}
	if m2.Report().DRAMBytes == 0 {
		t.Fatal("random misses should reach DRAM")
	}
}

func TestMachineLLCOptional(t *testing.T) {
	cfg := testConfig()
	cfg.LLC = CacheGeom{} // two-level host
	m := NewMachine(cfg)
	m.Data(0x5000, 8, false)
	r := m.Report()
	if r.LLCOccupancyBytes == 0 {
		t.Fatal("occupancy should fall back to L2")
	}
}

func TestConfigValidation(t *testing.T) {
	ok := testConfig()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	vipt := testConfig()
	vipt.L1I = CacheGeom{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64} // 8KB way > 4KB page
	if err := vipt.Validate(); err == nil || !strings.Contains(err.Error(), "VIPT") {
		t.Fatalf("VIPT violation not caught: %v", err)
	}
	vipt.SkipVIPTCheck = true
	if err := vipt.Validate(); err != nil {
		t.Fatalf("SkipVIPTCheck ignored: %v", err)
	}
	bad := testConfig()
	bad.FreqGHz = 0
	if bad.Validate() == nil {
		t.Fatal("zero frequency accepted")
	}
	bad = testConfig()
	bad.MLPOverlap = 1.0
	if bad.Validate() == nil {
		t.Fatal("MLP 1.0 accepted")
	}
	bad = testConfig()
	bad.IssueWidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}
	// A uop cache that delivers nothing would price every uop it supplies
	// at 1/0 cycles; a host without one may leave its width at zero.
	bad = testConfig()
	bad.DSBWidth = 0
	if err := bad.Validate(); err == nil || !strings.HasPrefix(err.Error(), "uarch: test: DSB: ") {
		t.Fatalf("DSB without a width: got %v", err)
	}
	bad.DSBUops = 0
	if err := bad.Validate(); err != nil {
		t.Fatalf("no DSB and no DSB width: %v", err)
	}
	// Bad geometry on any level is an error that names the machine and the
	// level, not a divide-by-zero in Validate or a bare panic in newCache.
	for _, tc := range []struct {
		level string
		edit  func(*Config)
	}{
		{"L1I", func(c *Config) { c.L1I.Ways = 0 }},
		{"L1D", func(c *Config) { c.L1D.LineBytes = 0 }},
		{"L1D", func(c *Config) { c.L1D.LineBytes = 48 }},
		{"L2", func(c *Config) { c.L2.SizeBytes = 3 << 18 }}, // 768 sets
		{"L2", func(c *Config) { c.L2 = CacheGeom{} }},
		{"LLC", func(c *Config) { c.LLC.Ways = 11 }}, // the real Xeon's, not a power-of-two set count
		{"LLC", func(c *Config) { c.LLC.Ways = 32; c.LLC.SizeBytes *= 2 }},
	} {
		bad = testConfig()
		tc.edit(&bad)
		err := bad.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "uarch: test: "+tc.level+": ") {
			t.Errorf("bad %s geometry: got %v", tc.level, err)
		}
	}
}

// TestDSBGeometry: the uop cache's set count rounds up to a power of two
// with a floor of one set, so every capacity builds, including what
// platform.Contend leaves of a small one under SMT.
func TestDSBGeometry(t *testing.T) {
	for uops, wantBytes := range map[int]uint64{
		1536: 2048, 768: 1024, // the Xeon, and the Xeon under SMT
		2048: 2048, 2049: 2048, 4000: 4096,
		256: 256, 255: 256, 128: 256, 1: 256, // below one set's worth
	} {
		cfg := testConfig()
		cfg.DSBUops = uops
		if err := cfg.Validate(); err != nil {
			t.Fatalf("DSBUops %d: %v", uops, err)
		}
		g := NewMachine(cfg).units[kindDSB].c.geom
		if g.SizeBytes != wantBytes || g.Ways != 8 || g.LineBytes != 32 {
			t.Errorf("DSBUops %d: geometry %+v, want %d B", uops, g, wantBytes)
		}
	}
}

func TestHugePageModeString(t *testing.T) {
	if PagesBase.String() != "base" || PagesTHP.String() != "thp" || PagesEHP.String() != "ehp" {
		t.Fatal("mode strings wrong")
	}
	if !strings.Contains(HugePageMode(9).String(), "9") {
		t.Fatal("unknown mode string")
	}
}

// TestReassemblyForgetsMemos covers what TestRecycledMachineIdentity cannot see:
// a same-page memo that survives a unit's reset answers one access that
// should have missed, the page then misses on its next use instead, and
// every count comes out the same. So look at the memos (and the address
// maps) directly, in every unit and every lane: the machine runs three hosts
// of two translation keys, its units are released and assembled for one and
// then for two, so the second lane's units come back from the keeper after
// a machine that did not use them.
func TestReassemblyForgetsMemos(t *testing.T) {
	cfg := testConfig()
	thp := cfg
	thp.HugePages, thp.THPCoverage = PagesTHP, 0.5
	m := NewLanes(cfg, thp, cfg)
	run := func() {
		m.MapText(0x40_0000, 0x80_0000)
		m.MapData(0x7000_0000, 0x7100_0000)
		m.MapData(0x7080_0000, 0x7200_0000) // overlaps: the slow path is on
		for i := uint64(0); i < 4096; i++ {
			m.FetchBlock(0x40_0000+i*96, 32, 9)
			m.Data(0x7000_0000+i*520, 8, i%3 == 0)
		}
	}
	k := Keeper{}
	run()
	m = k.Reassemble(m, cfg)
	run()
	m = k.Reassemble(m, cfg, thp)
	if len(m.lanes) != 2 {
		t.Fatalf("%d lanes after reassembly for two hosts", len(m.lanes))
	}
	for i := range m.lanes {
		l := &m.lanes[i]
		if c := m.Counts(i); c != (Counts{}) {
			t.Errorf("lane %d: counts after reassembly: %+v", i, c)
		}
		for k, u := range l.unit {
			if c := &u.c; u.hasC && (c.lastBlock != ^uint64(0) || c.Accesses != 0 || c.resident != 0) {
				t.Errorf("lane %d: %s after reassembly: lastBlock %#x, %d accesses, %d resident", i, u.key.Kind(), c.lastBlock, c.Accesses, c.resident)
			}
			if unitKind(k) == kindL1D && (u.streams != [16]uint64{} || u.streamNext != 0) {
				t.Errorf("lane %d: stream trackers after reassembly: %v, next %d", i, u.streams, u.streamNext)
			}
		}
		tr := &l.unit[kindXlat].tr
		for name, tb := range map[string]*tlb{"itlb": tr.itlb, "dtlb": tr.dtlb, "stlb": tr.stlb} {
			if tb.lastPage != ^uint64(0) || tb.Accesses != 0 || tb.idx.Len() != 0 {
				t.Errorf("lane %d: %s after reassembly: lastPage %#x, %d accesses, %d resident", i, name, tb.lastPage, tb.Accesses, tb.idx.Len())
			}
		}
		if len(tr.regions) != 0 || len(tr.sorted) != 0 || tr.overlapped || tr.fetch != (pageMemo{}) || tr.data != (pageMemo{}) {
			t.Errorf("lane %d: address map after reassembly: %d regions, %d sorted, overlapped=%v, memos %+v %+v",
				i, len(tr.regions), len(tr.sorted), tr.overlapped, tr.fetch, tr.data)
		}
	}
}

// TestMappingIsIdempotent: a session that rebuilds its guest on a kept
// machine maps the same binary again; that must neither change a lookup
// nor switch the machine to the overlapping-region scan.
func TestMappingIsIdempotent(t *testing.T) {
	cfg := testConfig()
	cfg.HugePages, cfg.THPCoverage = PagesTHP, 0.5
	m := NewMachine(cfg)
	for i := 0; i < 3; i++ {
		m.MapText(0x40_0000, 0x1000_0000)
		m.MapData(0x7000_0000, 0x7100_0000)
	}
	if tr := &m.lanes[0].unit[kindXlat].tr; len(tr.regions) != 3 || tr.overlapped {
		t.Fatalf("%d regions, overlapped=%v; want the 3 of the first round on the fast path", len(tr.regions), tr.overlapped)
	}
}
