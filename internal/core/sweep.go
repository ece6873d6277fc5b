package core

import (
	"fmt"
	"io"
	"reflect"

	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

// SweepError rejects a sweep — the SessionConfigs of one RunSessions,
// IntervalRunner or simpoint.RunSampledSweep — whose members cannot share
// one guest: Field names what differs ("Guest", "HostCode" for the
// normalised binary, or "Profile"), between members A and B. A
// Profile set on one member of a sweep of several is rejected under Field
// "Profile" too, since the profiler follows one host. Hosts and scenarios
// may differ freely.
type SweepError struct {
	Field string
	A, B  int
}

func (e *SweepError) Error() string {
	if e.Field == "Profile" {
		return fmt.Sprintf("core: sweep members %d and %d: Profile needs a sweep of one host", e.A, e.B)
	}
	return fmt.Sprintf("core: sweep members %d and %d differ in %s", e.A, e.B, e.Field)
}

// CheckSweep reports whether cfgs can run as one sweep: nil, an error for
// the first invalid host or host code, or a *SweepError.
func CheckSweep(cfgs []SessionConfig) error {
	_, err := sweepHosts(cfgs)
	return err
}

// sweepHosts checks a sweep and returns its contended hosts, in order. Each
// host is validated before Contend divides by its geometry and after,
// because what Contend returns is what gets built.
func sweepHosts(cfgs []SessionConfig) ([]uarch.Config, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: a sweep needs at least one session")
	}
	first := &cfgs[0]
	binary := first.HostCode.Normalized()
	for i := range cfgs[1:] {
		c, b := &cfgs[i+1], i+1
		field := ""
		switch {
		case !sameGuest(first.Guest, c.Guest):
			field = "Guest"
		case c.HostCode.Normalized() != binary:
			field = "HostCode"
		case first.Profile || c.Profile:
			field = "Profile"
		}
		if field != "" {
			return nil, &SweepError{Field: field, A: 0, B: b}
		}
	}
	hosts := make([]uarch.Config, len(cfgs))
	for i := range cfgs {
		if err := cfgs[i].Host.Validate(); err != nil {
			return nil, fmt.Errorf("core: host: %w", err)
		}
		hosts[i] = platform.Contend(cfgs[i].Host, cfgs[i].Scenario)
		if err := hosts[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: host: %w", err)
		}
	}
	if err := first.HostCode.Validate(); err != nil {
		return nil, fmt.Errorf("core: host code: %w", err)
	}
	return hosts, nil
}

// sameGuest reports whether two guest configs build the same guest: equal
// field for field, with the exec-trace writer the same one (a writer that
// cannot be compared is never the same as another). Seed, CalendarQueue and
// Shards are left out: nothing reads them.
func sameGuest(a, b GuestConfig) bool {
	if !sameWriter(a.ExecTrace, b.ExecTrace) {
		return false
	}
	a.ExecTrace, b.ExecTrace = nil, nil
	a.Seed, b.Seed = 0, 0
	a.CalendarQueue, b.CalendarQueue = false, false
	a.Shards, b.Shards = 0, 0
	return a == b
}

func sameWriter(a, b io.Writer) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}
