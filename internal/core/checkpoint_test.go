package core_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/guest"
	"gem5prof/internal/sim"
)

// ffAndCheckpoint fast-forwards a workload with the Atomic CPU for delta
// ticks and returns the encoded checkpoint plus the reference checksum.
func ffAndCheckpoint(t *testing.T, workload string, scale int, delta sim.Tick) ([]byte, uint32) {
	t.Helper()
	g, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: workload, Scale: scale,
	}, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	res := g.RunFor(delta)
	if res.Status != sim.ExitLimit {
		t.Fatalf("fast-forward ended early: %+v", res)
	}
	ck, err := g.TakeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Insts == 0 || ck.Tick == 0 {
		t.Fatalf("empty checkpoint: %+v", ck)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Readable means JSON.
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
		t.Fatal("checkpoint not readable JSON")
	}
	// Expected checksum from an uninterrupted run.
	full, err := core.RunGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: workload, Scale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, uint32(full.ExitCode)
}

// TestCheckpointRestoreIntoEveryModel is the paper's methodology: take a
// checkpoint with the Atomic CPU and recover it under every CPU model; the
// continued run must produce the identical result.
func TestCheckpointRestoreIntoEveryModel(t *testing.T) {
	data, want := ffAndCheckpoint(t, "dedup", 2048, 20*sim.Microsecond)
	ck, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range core.AllCPUModels {
		t.Run(string(model), func(t *testing.T) {
			g, err := core.RestoreGuest(core.GuestConfig{
				CPU: model, Mode: core.SE, Workload: "dedup", Scale: 2048,
			}, ck, sim.NewNopTracer())
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			if uint32(res.ExitCode) != want {
				t.Fatalf("restored run checksum %#x, want %#x", uint32(res.ExitCode), want)
			}
			// The restored run must be a continuation, not a replay.
			if res.Insts >= ck.Insts+200_000 {
				t.Fatalf("suspiciously many instructions after restore: %d", res.Insts)
			}
		})
	}
}

// TestCheckpointCrossPlatformRestore mirrors the paper's footnote: take the
// checkpoint "on the Xeon" and recover it under an M1 co-simulation.
func TestCheckpointCrossPlatformRestore(t *testing.T) {
	data, want := ffAndCheckpoint(t, "sieve", 4096, 10*sim.Microsecond)
	ck, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.RestoreGuest(core.GuestConfig{CPU: core.Timing}, ck, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res.ExitCode) != want {
		t.Fatalf("cross-restore checksum %#x, want %#x", uint32(res.ExitCode), want)
	}
}

// TestCheckpointDeterminism is the conformance property behind the
// checkpoint workflow: restoring at tick T and running to completion must
// produce exactly the straight run's result on EVERY CPU model — same
// exit checksum and instruction conservation (insts before the cut plus
// insts after equals the uninterrupted total).
func TestCheckpointDeterminism(t *testing.T) {
	straight := map[core.CPUModel]*core.GuestResult{}
	for _, model := range core.AllCPUModels {
		res, err := core.RunGuest(core.GuestConfig{
			CPU: model, Mode: core.SE, Workload: "sieve", Scale: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		straight[model] = res
	}
	data, _ := ffAndCheckpoint(t, "sieve", 1024, 2*sim.Microsecond)
	ck, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range core.AllCPUModels {
		model := model
		t.Run(string(model), func(t *testing.T) {
			g, err := core.RestoreGuest(core.GuestConfig{
				CPU: model, Mode: core.SE, Workload: "sieve", Scale: 1024,
			}, ck, sim.NewNopTracer())
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := straight[model]
			if res.ExitCode != want.ExitCode {
				t.Errorf("restored exit %#x, straight %#x", res.ExitCode, want.ExitCode)
			}
			if !res.ChecksumOK {
				t.Errorf("restored run checksum mismatch")
			}
			if ck.Insts+res.Insts != want.Insts {
				t.Errorf("instruction conservation: %d (checkpoint) + %d (restored) != %d (straight)",
					ck.Insts, res.Insts, want.Insts)
			}
		})
	}
}

// FuzzCheckpointRoundTrip drives the checkpoint cut point and target model
// from fuzzer inputs: any reachable cut must encode to JSON that decodes
// and re-encodes byte-identically, and the restored run must finish with
// the straight run's checksum and instruction count.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(int64(2), uint8(0))
	f.Add(int64(5), uint8(1))
	f.Add(int64(9), uint8(2))
	f.Add(int64(13), uint8(3))
	f.Fuzz(func(t *testing.T, deltaUS int64, modelIdx uint8) {
		if deltaUS <= 0 || deltaUS > 50 {
			t.Skip()
		}
		model := core.AllCPUModels[int(modelIdx)%len(core.AllCPUModels)]
		cfg := core.GuestConfig{CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024}
		g, err := core.BuildGuest(cfg, sim.NewNopTracer())
		if err != nil {
			t.Fatal(err)
		}
		if res := g.RunFor(sim.Tick(deltaUS) * sim.Microsecond); res.Status != sim.ExitLimit {
			t.Skip() // workload finished before the cut point
		}
		ck, err := g.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		data, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ck2, err := core.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		data2, err := ck2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatal("checkpoint encode/decode/encode not byte-identical")
		}
		straight, err := core.RunGuest(core.GuestConfig{
			CPU: model, Mode: core.SE, Workload: "sieve", Scale: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		rg, err := core.RestoreGuest(core.GuestConfig{
			CPU: model, Mode: core.SE, Workload: "sieve", Scale: 1024,
		}, ck2, sim.NewNopTracer())
		if err != nil {
			t.Fatal(err)
		}
		res, err := rg.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.ExitCode != straight.ExitCode {
			t.Errorf("%s: restored exit %#x, straight %#x", model, res.ExitCode, straight.ExitCode)
		}
		if ck2.Insts+res.Insts != straight.Insts {
			t.Errorf("%s: instruction conservation: %d + %d != %d", model, ck2.Insts, res.Insts, straight.Insts)
		}
	})
}

func TestCheckpointRequiresAtomic(t *testing.T) {
	g, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 1024,
	}, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	g.RunFor(2 * sim.Microsecond)
	if _, err := g.TakeCheckpoint(); err == nil {
		t.Fatal("checkpoint of a Timing CPU accepted")
	}
}

func TestCheckpointDecodeErrors(t *testing.T) {
	if _, err := core.DecodeCheckpoint([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := core.DecodeCheckpoint([]byte(`{"version":99,"arch":[{}]}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := core.DecodeCheckpoint([]byte(`{"version":1}`)); err == nil {
		t.Fatal("empty arch accepted")
	}
}

func TestRestoreCoreCountMismatch(t *testing.T) {
	data, _ := ffAndCheckpoint(t, "sieve", 1024, 2*sim.Microsecond)
	ck, _ := core.DecodeCheckpoint(data)
	if _, err := core.RestoreGuest(core.GuestConfig{CPU: core.Atomic, Cores: 4, Mode: core.FS, BootExit: true}, ck, sim.NewNopTracer()); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
}

// TestCheckpointFixtureReencodes pins the encoded form across the change of
// guest.Memory's backing store: a checkpoint written by the commit before the
// page table (water_spatial cut at 1 us, plus one page in the second leaf and
// the last page of memory) must decode, pass through a Memory and encode back
// to the same bytes. The checkpoint cache is content-addressed, so a byte of
// drift would orphan every stored entry.
func TestCheckpointFixtureReencodes(t *testing.T) {
	want, err := os.ReadFile("testdata/checkpoint/pr12_water_spatial_1us.json")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	m, err := guest.RestoreMemory(ck.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("fixture restores to %d pages, want 4", m.TouchedPages())
	}
	if v, _ := m.Read(m.Size()-8, 8); v != 0x0123456789abcdef {
		t.Fatalf("last word of memory = %#x", v)
	}
	ck.Mem = m.Snapshot()
	got, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint fixture does not re-encode to the bytes it was read from")
	}
}
