package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchSpec is BENCHMARK.json; decoding rejects any key it does not name.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRe)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var wls []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		wls = append(wls, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(wls, code) {
		t.Errorf("workloads: BENCHMARK.json has %v, code runs %v", wls, code)
	}

	e2e := (&bench{}).endToEnd()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("end_to_end: BENCHMARK.json has %d metrics, code emits %d", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		if i < len(e2e) && (m.Name != e2e[i].name || m.Unit != e2e[i].unit) {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s [%s], code emits %s [%s]", i, m.Name, m.Unit, e2e[i].name, e2e[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	layers := layerNames()
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("per_layer: BENCHMARK.json has %d metrics, code emits %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		if i < len(layers) && (m.Name != layers[i] || m.Unit != unitOf(layers[i])) {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %s [%s], code emits %s [%s]", i, m.Name, m.Unit, layers[i], unitOf(layers[i]))
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5, 1, 3}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.99, 19.9},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Error("quantile reordered its input")
	}
}

func TestGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.sha256")
	// sha256("") and sha256("abc").
	body := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855  empty\n" +
		"ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad  abc\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check("empty", nil); err != nil {
		t.Error(err)
	}
	if err := g.check("abc", []byte("abc")); err != nil {
		t.Error(err)
	}
	if err := g.check("abc", []byte("abd")); err == nil {
		t.Error("changed bytes passed the check")
	}
	if err := g.check("missing", nil); err == nil {
		t.Error("a name without a digest passed the check")
	}

	for _, bad := range []string{"nothex  x\n", body + body, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadGolden(path); err == nil {
			t.Errorf("malformed digest file %q loaded", bad)
		}
	}

	committed, err := loadGolden(filepath.Join("..", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"all"}, figureNames()...)
	if len(committed) != len(want) {
		t.Errorf("%s has %d entries, want %d", goldenFile, len(committed), len(want))
	}
	for _, n := range want {
		if _, ok := committed[n]; !ok {
			t.Errorf("%s has no digest for %q", goldenFile, n)
		}
	}
}

// TestSmokeCG solves the smallest system once and checks the solution.
func TestSmokeCG(t *testing.T) {
	sys, _, err := buildCG([]string{"spmsrts"}, 1, nil, span{})
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{ctx: context.Background(), cg: sys}
	if d, ok := b.cgSweep(nil, span{}); !ok || b.failed != 0 || b.attempted != 1 || d <= 0 {
		t.Fatalf("sweep: ok=%v failed=%d attempted=%d time=%v", ok, b.failed, b.attempted, d)
	}
}

func TestEndToEndStatistics(t *testing.T) {
	// A sample that took twice as long while the reference took twice as
	// long counts as one taken at the reference speed.
	at := func(wall, slowdown float64) timing { return timing{wall, refNominal * slowdown} }
	b := &bench{
		setups:  []timing{at(2, 1), at(2, 2), at(3, 1)},
		samples: []timing{at(3, 1), at(8, 2), at(5, 1)},
		rssMB:   []float64{12, 10, 11},
	}
	want := map[string]float64{"setup_s": 2, "sample_s": 4, "peak_rss_mb": 10}
	for _, m := range b.endToEnd() {
		if math.Abs(m.value-want[m.name]) > 1e-12 {
			t.Errorf("%s = %v, want %v", m.name, m.value, want[m.name])
		}
	}
	for _, m := range (&bench{}).endToEnd() {
		if !math.IsNaN(m.value) {
			t.Errorf("with no samples: %s = %v, want NaN", m.name, m.value)
		}
	}
}

// TestSmokeServe builds cubie, serves two figures that need no workload
// runs, checks them against their golden digests, and runs a short hot
// phase.
func TestSmokeServe(t *testing.T) {
	b, err := newBench(context.Background(), "..", t.TempDir(), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b.filled = "off"
	names := []string{"suite", "specs"}
	p, ok := b.firstPass(names, nil, span{})
	if p.d == nil {
		t.Fatal("daemon did not boot")
	}
	defer p.d.stop()
	if !ok || b.failed != 0 || len(p.figs) != 2 {
		t.Fatalf("first pass: ok=%v failed=%d figs=%d", ok, b.failed, len(p.figs))
	}
	if !strings.HasPrefix(string(b.bodies["suite"]), "The Cubie benchmark suite") {
		t.Errorf("suite body starts %.40q", b.bodies["suite"])
	}
	b.hotPhase(p.d, names, 200*time.Millisecond)
	if b.failed != 0 || len(b.hot) == 0 || b.hotTime <= 0 {
		t.Fatalf("hot phase: failed=%d requests=%d", b.failed, len(b.hot))
	}
}
