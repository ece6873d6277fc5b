package mem

import "gem5prof/internal/sim"

// HierarchyConfig describes a classic two-level guest memory system:
// split L1 caches per CPU, a shared bus, a unified L2, and DRAM.
type HierarchyConfig struct {
	Prefix string
	L1I    CacheConfig
	L1D    CacheConfig
	L2     CacheConfig
	Bus    BusConfig
	DRAM   DRAMConfig
	// GuestTLBs inserts per-core instruction and data TLBs in front of the
	// L1s (gem5's ARM FS configuration). Off by default so the baseline
	// matches the classic SE-mode memory system.
	GuestTLBs bool
	ITB       TLBConfig
	DTB       TLBConfig
	// Directory inserts a MESI-style directory controller between the
	// per-core L1 data caches and the shared L2. Only meaningful for
	// NewMultiHierarchy with more than one core; off by default so the
	// single-core memory system (and its statistics) is untouched.
	Directory bool
	Dir       DirectoryConfig
}

// DefaultHierarchyConfig mirrors the gem5 ARM defaults used by the paper's
// simulations: 32KB 2-way L1s, a 1MB 8-way L2, and DDR4 DRAM.
func DefaultHierarchyConfig(prefix string) HierarchyConfig {
	return HierarchyConfig{
		Prefix: prefix,
		L1I: CacheConfig{
			Name:            prefix + ".l1i",
			SizeBytes:       32 * 1024,
			Ways:            2,
			BlockBytes:      64,
			HitLatency:      1 * sim.Nanosecond,
			ResponseLatency: 1 * sim.Nanosecond,
			MSHRs:           4,
		},
		L1D: CacheConfig{
			Name:            prefix + ".l1d",
			SizeBytes:       32 * 1024,
			Ways:            2,
			BlockBytes:      64,
			HitLatency:      2 * sim.Nanosecond,
			ResponseLatency: 2 * sim.Nanosecond,
			MSHRs:           8,
		},
		L2: CacheConfig{
			Name:            prefix + ".l2",
			SizeBytes:       1024 * 1024,
			Ways:            8,
			BlockBytes:      64,
			HitLatency:      12 * sim.Nanosecond,
			ResponseLatency: 4 * sim.Nanosecond,
			MSHRs:           16,
		},
		Bus: BusConfig{
			Name:         prefix + ".membus",
			Latency:      2 * sim.Nanosecond,
			TicksPerByte: 16,
		},
		DRAM: DefaultDDR4(prefix + ".dram"),
		Dir: DirectoryConfig{
			Name:              prefix + ".dir",
			LookupLatency:     4 * sim.Nanosecond,
			InvalidateLatency: 6 * sim.Nanosecond,
		},
		ITB: TLBConfig{
			Name:        prefix + ".itb",
			Entries:     48,
			PageBytes:   4096,
			MissLatency: 20 * sim.Nanosecond,
		},
		DTB: TLBConfig{
			Name:        prefix + ".dtb",
			Entries:     64,
			PageBytes:   4096,
			MissLatency: 20 * sim.Nanosecond,
		},
	}
}

// Hierarchy is one constructed memory system.
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	Bus  *Bus
	DRAM *DRAM
}

// NewHierarchy builds the memory system bottom-up in sys. The DRAM
// controller is constructed against the memory domain's view so that, when
// sharding is enabled, its events run on the memory shard; everything above
// the bus stays on the CPU shard.
func NewHierarchy(sys *sim.System, cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{}
	h.DRAM = NewDRAM(sys.DomainView(sim.DomainMem), cfg.DRAM)
	h.Bus = NewBus(sys, cfg.Bus, h.DRAM)
	h.L2 = newCache(sys, cfg.L2, h.Bus, true)
	h.L1I = NewCache(sys, cfg.L1I, h.L2)
	h.L1D = NewCache(sys, cfg.L1D, h.L2)
	return h
}
