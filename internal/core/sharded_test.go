package core

import (
	"hash/fnv"
	"strings"
	"testing"

	"gem5prof/internal/platform"
)

// TestShardedDifferential is the sharded engine's end-to-end correctness
// proof at the session level: for every cell, the sharded co-simulation must
// produce a stat dump — host report, code-model summary, guest registry —
// byte-identical to the serial path's, and the committed-instruction exec
// trace must hash identically.
// The conservative quantum barrier never lets a shard fire an event another
// shard could still affect, and cross-shard posts carry their serial
// provenance stamps, so the merged event order is the single-queue order
// exactly.
func TestShardedDifferential(t *testing.T) {
	cells := []struct {
		name     string
		guest    GuestConfig
		pipeline PipelineMode
	}{
		{"o3_xeon", GuestConfig{CPU: O3, Mode: SE, Workload: "water_nsquared", Scale: 24}, PipelineOff},
		{"timing_calendar", GuestConfig{CPU: Timing, Mode: SE, Workload: "dedup", Scale: 2048, CalendarQueue: true}, PipelineOff},
		{"fs_boot_pipelined", GuestConfig{CPU: Timing, Mode: FS, BootExit: true, BootKBs: 8}, PipelineOn},
		{"timing_mt_dual", GuestConfig{CPU: Timing, Mode: SE, Workload: "histogram_mt", Scale: 2048, Cores: 2}, PipelineOff},
		{"timing_mt_quad", GuestConfig{CPU: Timing, Mode: SE, Workload: "dotprod_mt", Scale: 2048, Cores: 4}, PipelineOff},
	}
	host := platform.IntelXeon()
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(shards ShardMode) (string, uint64) {
				g := c.guest
				g.Shards = shards
				var trace strings.Builder
				g.ExecTrace = &trace
				res, err := RunSession(SessionConfig{Guest: g, Host: host, Pipeline: c.pipeline})
				if err != nil {
					t.Fatalf("shards %v: %v", shards, err)
				}
				h := fnv.New64a()
				h.Write([]byte(trace.String()))
				return fullStatDump(res), h.Sum64()
			}
			serial, serialTrace := run(ShardSerial)
			if !strings.Contains(serial, "stat ") || strings.Contains(serial, "Cycles:0") {
				t.Fatalf("suspiciously empty stat dump:\n%.400s", serial)
			}
			dump, trace := run(2)
			if dump != serial {
				t.Fatalf("stat dumps differ between serial and sharded:\n%s", firstDiff(serial, dump))
			}
			if trace != serialTrace {
				t.Fatalf("exec trace hash differs between serial and sharded: %x vs %x", serialTrace, trace)
			}
		})
	}
}

// TestShardsAboveTwoIsTwo: there is one sharded layout, so on a 4-core
// guest Shards: 5 is Shards: 2 — the same plan on the result, and the serial
// run's statistics.
func TestShardsAboveTwoIsTwo(t *testing.T) {
	run := func(shards ShardMode) *GuestResult {
		res, err := RunGuest(GuestConfig{CPU: Timing, Mode: SE, Workload: "dotprod_mt",
			Scale: 2048, Cores: 4, Shards: shards})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		return res
	}
	serial, two, five := run(ShardSerial), run(2), run(5)
	if serial.Plan.Sharded || !two.Plan.Sharded || five.Plan != two.Plan {
		t.Fatalf("plans: serial %v, Shards 2 %v, Shards 5 %v", serial.Plan, two.Plan, five.Plan)
	}
	want := serial.Stats.Dump()
	if two.Stats.Dump() != want || five.Stats.Dump() != want {
		t.Fatal("sharded statistics differ from the serial run's")
	}
}
