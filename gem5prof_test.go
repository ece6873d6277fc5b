package gem5prof_test

import (
	"testing"

	"gem5prof"
)

// TestPublicSurface exercises the façade end to end the way the README
// shows: a guest run, a co-simulation, platform constructors, and the
// experiment registry.
func TestPublicSurface(t *testing.T) {
	res, err := gem5prof.RunGuest(gem5prof.GuestConfig{
		CPU:      gem5prof.Timing,
		Mode:     gem5prof.SE,
		Workload: "sieve",
		Scale:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChecksumOK {
		t.Fatal("checksum mismatch through the façade")
	}

	sess, err := gem5prof.RunSession(gem5prof.SessionConfig{
		Guest: gem5prof.GuestConfig{CPU: gem5prof.Atomic, Workload: "sieve", Scale: 1024},
		Host:  gem5prof.M1Ultra(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.SimSeconds() <= 0 {
		t.Fatal("no host time")
	}

	if len(gem5prof.WorkloadNames()) != 13 {
		t.Fatalf("workloads = %v", gem5prof.WorkloadNames())
	}
	if len(gem5prof.PARSECWorkloads()) != 9 {
		t.Fatal("PARSEC set wrong")
	}
	if len(gem5prof.SPECNames()) != 3 {
		t.Fatal("SPEC set wrong")
	}
	if len(gem5prof.ExperimentIDs()) != 19 {
		t.Fatalf("experiments = %v", gem5prof.ExperimentIDs())
	}
	if _, err := gem5prof.PlatformByName("M1_Pro"); err != nil {
		t.Fatal(err)
	}
	if _, ok := gem5prof.WorkloadByName("canneal"); !ok {
		t.Fatal("canneal missing")
	}
	if _, err := gem5prof.SPECByName("505.mcf_r"); err != nil {
		t.Fatal(err)
	}

	// Contention helper is exported and keeps the set count.
	x := gem5prof.IntelXeon()
	c := gem5prof.Contend(x, gem5prof.Scenario{Procs: 20})
	if c.LLC.SizeBytes >= x.LLC.SizeBytes {
		t.Fatal("Contend did not partition")
	}

	// FireSim constructors.
	fb := gem5prof.FireSimBase()
	if err := fb.Validate(); err != nil {
		t.Fatal(err)
	}
	small := gem5prof.FireSimRocket(8, 2, 8, 2, 512, 8)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}

	// Table experiments render through the façade.
	exp, err := gem5prof.RunExperiment("table2", gem5prof.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Render() == "" {
		t.Fatal("empty render")
	}
}
