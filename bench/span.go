package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Parent is the index of the enclosing
// span in the recorder (-1 for a root); Op groups the spans of one
// operation.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the same code path runs traced and untraced; it is used from
// one goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextOp starts a new operation id for the spans that follow.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span under the innermost open one; the returned func closes
// it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, StartNs: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].EndNs = time.Since(r.t0).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// selfNs returns each span's self time: its duration minus the part its
// direct children cover. Children of one parent never overlap here (one
// goroutine opens and closes them in stack order), so the covered part is
// the sum of their durations.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// durations returns the duration in seconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// writeSpans writes the recorded spans with their self times to path.
func (r *recorder) writeSpans(path string) error {
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	self := selfNs(r.spans)
	out := make([]outSpan, len(r.spans))
	for i, s := range r.spans {
		out[i] = outSpan{s, self[i]}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
