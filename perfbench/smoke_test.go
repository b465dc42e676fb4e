package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkNames reads the end-to-end and per-layer metric names the
// repository's BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", declared, defined)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// tinyRun runs a workload at the smallest scale: one setup, a two-round
// cycle and no time budget beyond it.
func tinyRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	res, err := runBench(options{
		workload:  name,
		seed:      3,
		traced:    traced,
		setupReps: 1,
		cycle:     2,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.failures) > 0 {
		t.Fatalf("%s: failed checks: %v", name, res.failures)
	}
	return res
}

func namesOf(res *result) []string {
	var names []string
	for _, m := range res.metrics {
		names = append(names, m.name)
	}
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s metrics %v, BENCHMARK.json declares %v", what, g, w)
	}
}

// TestSmoke runs every workload at tiny scale, untraced twice and traced
// once: every run passes its checks, prints exactly the metrics
// BENCHMARK.json declares, and the simulated metrics repeat exactly for
// one seed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := tinyRun(t, w.name, false)
			sameNames(t, "end-to-end", namesOf(a), endToEnd)
			b := tinyRun(t, w.name, false)
			for i, m := range a.metrics {
				deterministic := strings.HasPrefix(m.name, "sim_") || strings.HasPrefix(m.name, "slo_") ||
					strings.HasPrefix(m.name, "billed_") || m.name == "served_pct"
				if deterministic && b.metrics[i].value != m.value {
					t.Errorf("%s differs across runs with one seed: %v then %v", m.name, m.value, b.metrics[i].value)
				}
			}
			sameNames(t, "per-layer", namesOf(tinyRun(t, w.name, true)), perLayer)
		})
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tailOf(xs); v != 90 || pct != "p90.00" {
		t.Errorf("tailOf(1..100) = %v %s, want 90 p90.00", v, pct)
	}
	if _, pct := tailOf(make([]float64, 300000)); pct != "p99.99" {
		t.Errorf("tailOf of 300000 samples states %s, want p99.99 (rounded down, not up to p100.00)", pct)
	}
	if v, _ := tailOf(xs[:5]); v != 5 {
		t.Errorf("tailOf(1..5) = %v, want the maximum 5", v)
	}
}

func TestCoveredNs(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}}
	if got := coveredNs(spans); got != 25 {
		t.Errorf("coveredNs = %d, want 25 (overlapping children counted once)", got)
	}
}
