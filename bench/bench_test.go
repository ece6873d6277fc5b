package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 2}, 2, 3, 4},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(tc.in)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		if m := median(tc.in); m != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.in, m, tc.med)
		}
	}
}

func TestRungSubtraction(t *testing.T) {
	// R1..R5 as the peel takes them; uarch is taken over R3, not R4.
	r := []float64{0.007, 0.0071, 0.05, 0.27, 0.55}
	layers := []float64{r[0], selfTime(r[1], r[0]), selfTime(r[2], r[1]), selfTime(r[4], r[2])}
	sum := 0.0
	for _, l := range layers {
		sum += l
	}
	if math.Abs(sum-r[4]) > 1e-12 {
		t.Errorf("cpu+mem+hostmodel+uarch = %v, want the serial session's %v", sum, r[4])
	}
	if got := selfTime(0.10, 0.11); got >= 0 {
		t.Errorf("a rung faster than the one below it must read negative, got %v", got)
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio over nothing measured must be 0")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] > run [10,90] > {build [10,30], sim [30,80]}; report [90,95].
	spans := []span{
		{Name: "op", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "run", Parent: 0, StartNs: 10, EndNs: 90},
		{Name: "build", Parent: 1, StartNs: 10, EndNs: 30},
		{Name: "sim", Parent: 1, StartNs: 30, EndNs: 80},
		{Name: "report", Parent: 0, StartNs: 90, EndNs: 95},
	}
	if got, want := selfNs(spans), []int64{15, 10, 20, 50, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfNs = %v, want %v", got, want)
	}

	rec := newRecorder()
	rec.nextOp()
	endOp := rec.begin("op")
	rec.begin("child")()
	endOp()
	if len(rec.spans) != 2 || rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || rec.spans[1].Op != 1 {
		t.Errorf("recorder nesting wrong: %+v", rec.spans)
	}
	var none *recorder
	none.nextOp()
	none.begin("ignored")() // a nil recorder records nothing and must not panic
}

// benchmarkJSON mirrors the schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarations holds BENCHMARK.json and the tables in this package in
// step.
func TestDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, e, d)
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs every workload end to end and traced at the smoke sizes
// and requires exactly the metrics BENCHMARK.json declares, with its units.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	check := func(t *testing.T, res result, det detail, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%t attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, det.Errors)
		}
		if det.StatsDigest == "" {
			t.Error("no stats digest")
		}
		for _, name := range sortedKeys(res.Metrics) {
			if unit, ok := want[name]; !ok {
				t.Errorf("metric %s is not declared in BENCHMARK.json", name)
			} else if unit != res.Metrics[name].Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, res.Metrics[name].Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("metric %s is declared in BENCHMARK.json and was not reported", name)
			}
		}
	}
	scratch := t.TempDir()
	for _, w := range allWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, det := runEndToEnd(w, smokeSizes, 7, 0.01)
			check(t, res, det, wantE2E)
		})
	}
	// The probes are the same for every workload; one session workload and
	// one suite workload cover both kinds of traced operation.
	for _, name := range []string{"cosim_pipelined", "harness_quick"} {
		w, _ := workloadByName(name)
		t.Run(name+"/trace", func(t *testing.T) {
			spans := filepath.Join(scratch, name+".json")
			res, det := runTrace(w, smokeSizes, 7, 0.01, scratch, spans)
			check(t, res, det, wantLayer)
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(data, &got); err != nil || len(got) == 0 {
				t.Errorf("span file: %d spans, err %v", len(got), err)
			}
		})
	}
}
