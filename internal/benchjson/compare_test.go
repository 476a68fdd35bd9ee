package benchjson

import (
	"bytes"
	"strings"
	"testing"
)

func snap(benches ...Benchmark) *Snapshot { return &Snapshot{Benchmarks: benches} }

func bench(pkg, name string, ns float64) Benchmark {
	return Benchmark{Name: name, Package: pkg, Iterations: 1, NsPerOp: ns}
}

func TestCompareMatchesAndSorts(t *testing.T) {
	old := snap(
		bench("repro/a", "BenchmarkFast-8", 1000),
		bench("repro/a", "BenchmarkSlow-8", 1000),
		bench("repro/a", "BenchmarkGone-8", 500),
	)
	new := snap(
		bench("repro/a", "BenchmarkFast-8", 600),  // 40% faster
		bench("repro/a", "BenchmarkSlow-8", 1500), // 50% slower
		bench("repro/a", "BenchmarkNew-8", 123),
	)
	c := Compare(old, new)
	if len(c.Deltas) != 2 {
		t.Fatalf("%d deltas, want 2", len(c.Deltas))
	}
	// Worst regression first.
	if c.Deltas[0].Name != "BenchmarkSlow-8" || c.Deltas[0].Ratio != 1.5 {
		t.Fatalf("first delta: %+v", c.Deltas[0])
	}
	if c.Deltas[1].Ratio != 0.6 {
		t.Fatalf("second delta: %+v", c.Deltas[1])
	}
	if got := c.Deltas[0].Pct(); got < 49.9 || got > 50.1 {
		t.Fatalf("Pct = %v", got)
	}
	if len(c.OldOnly) != 1 || c.OldOnly[0] != "repro/a.BenchmarkGone-8" {
		t.Fatalf("old-only: %v", c.OldOnly)
	}
	if len(c.NewOnly) != 1 || c.NewOnly[0] != "repro/a.BenchmarkNew-8" {
		t.Fatalf("new-only: %v", c.NewOnly)
	}
}

func TestCompareDistinguishesPackages(t *testing.T) {
	// The same benchmark name in two packages must not cross-match.
	old := snap(bench("repro/a", "BenchmarkX-8", 100), bench("repro/b", "BenchmarkX-8", 200))
	new := snap(bench("repro/a", "BenchmarkX-8", 100), bench("repro/b", "BenchmarkX-8", 400))
	c := Compare(old, new)
	if len(c.Deltas) != 2 {
		t.Fatalf("%d deltas, want 2", len(c.Deltas))
	}
	if c.Deltas[0].Package != "repro/b" || c.Deltas[0].Ratio != 2 {
		t.Fatalf("first delta: %+v", c.Deltas[0])
	}
}

func TestRegressionsTolerance(t *testing.T) {
	old := snap(
		bench("p", "BenchmarkA-8", 1000),
		bench("p", "BenchmarkB-8", 1000),
		bench("p", "BenchmarkC-8", 1000),
	)
	new := snap(
		bench("p", "BenchmarkA-8", 1050), // +5%: within tolerance
		bench("p", "BenchmarkB-8", 1200), // +20%: regression
		bench("p", "BenchmarkC-8", 700),  // faster
	)
	regs := Compare(old, new).Regressions(0.10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkB-8" {
		t.Fatalf("regressions: %+v", regs)
	}
	if regs = Compare(old, new).Regressions(0.01); len(regs) != 2 {
		t.Fatalf("tight tolerance regressions: %+v", regs)
	}
}

func TestRenderTable(t *testing.T) {
	old := snap(bench("p", "BenchmarkA-8", 1000), bench("p", "BenchmarkDrop-8", 10))
	new := snap(bench("p", "BenchmarkA-8", 2000), bench("p", "BenchmarkAdd-8", 10))
	var buf bytes.Buffer
	Compare(old, new).Render(&buf, 0.10, 0.10)
	out := buf.String()
	for _, want := range []string{"REGRESSION", "+100.0%", "removed in new run", "new benchmark"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func benchAlloc(pkg, name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Package: pkg, Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestAllocRegressions(t *testing.T) {
	old := snap(
		benchAlloc("p", "BenchmarkGrew-8", 1000, 100),
		benchAlloc("p", "BenchmarkHeld-8", 1000, 100),
		benchAlloc("p", "BenchmarkWasZero-8", 1000, 0),
		benchAlloc("p", "BenchmarkStaysZero-8", 1000, 0),
		benchAlloc("p", "BenchmarkShrank-8", 1000, 45000),
	)
	new := snap(
		benchAlloc("p", "BenchmarkGrew-8", 1000, 120),    // +20% allocs: fails
		benchAlloc("p", "BenchmarkHeld-8", 1000, 105),    // +5%: within tolerance
		benchAlloc("p", "BenchmarkWasZero-8", 1000, 1),   // 0 → 1: always fails
		benchAlloc("p", "BenchmarkStaysZero-8", 1000, 0), // stays clean
		benchAlloc("p", "BenchmarkShrank-8", 1000, 7),    // the arena win
	)
	regs := Compare(old, new).AllocRegressions(0.10)
	if len(regs) != 2 {
		t.Fatalf("alloc regressions: %+v", regs)
	}
	got := map[string]bool{}
	for _, d := range regs {
		got[d.Name] = true
	}
	if !got["BenchmarkGrew-8"] || !got["BenchmarkWasZero-8"] {
		t.Fatalf("wrong benchmarks flagged: %+v", regs)
	}
	// The render marks alloc failures distinctly from ns/op failures.
	var buf bytes.Buffer
	Compare(old, new).Render(&buf, 0.10, 0.10)
	if !strings.Contains(buf.String(), "ALLOC REGRESSION") {
		t.Fatalf("render missing alloc marker:\n%s", buf.String())
	}
}

func TestBestOfCollapsesMetricsIndependently(t *testing.T) {
	// The fastest sample need not be the lowest-allocating one; each metric
	// takes its own minimum.
	old := snap(
		benchAlloc("p", "BenchmarkA-8", 1500, 10),
		benchAlloc("p", "BenchmarkA-8", 1000, 30),
	)
	new := snap(benchAlloc("p", "BenchmarkA-8", 1100, 9))
	c := Compare(old, new)
	if len(c.Deltas) != 1 {
		t.Fatalf("%d deltas, want 1", len(c.Deltas))
	}
	d := c.Deltas[0]
	if d.OldNs != 1000 || d.OldAllocs != 10 {
		t.Fatalf("old best-of = %v ns / %v allocs, want 1000 / 10", d.OldNs, d.OldAllocs)
	}
	if len(c.AllocRegressions(0.10)) != 0 {
		t.Fatal("9 vs best-of 10 allocs must pass the gate")
	}
}

func TestEnvelope(t *testing.T) {
	s1 := &Snapshot{Date: "2026-08-01", Benchmarks: []Benchmark{
		benchAlloc("p", "BenchmarkA-8", 1200, 50),
		benchAlloc("p", "BenchmarkOldOnly-8", 10, 1),
	}}
	s2 := &Snapshot{Date: "2026-08-02", GOOS: "linux", Benchmarks: []Benchmark{
		benchAlloc("p", "BenchmarkA-8", 1000, 70),
		benchAlloc("p", "BenchmarkNewOnly-8", 20, 2),
	}}
	env := Envelope(s1, s2)
	if env.Date != "2026-08-02" || env.GOOS != "linux" {
		t.Fatalf("envelope headers: %+v", env)
	}
	if len(env.Benchmarks) != 3 {
		t.Fatalf("%d benchmarks, want 3", len(env.Benchmarks))
	}
	// First-seen order, per-metric minima.
	a := env.Benchmarks[0]
	if a.Name != "BenchmarkA-8" || a.NsPerOp != 1000 || a.AllocsPerOp != 50 {
		t.Fatalf("envelope best-of: %+v", a)
	}
}

func TestCompareZeroOldNs(t *testing.T) {
	c := Compare(snap(bench("p", "BenchmarkZ-8", 0)), snap(bench("p", "BenchmarkZ-8", 5)))
	if len(c.Deltas) != 1 || c.Deltas[0].Ratio != 0 {
		t.Fatalf("zero-baseline delta: %+v", c.Deltas)
	}
	if len(c.Regressions(0.1)) != 0 {
		t.Fatal("zero-baseline must not be flagged as regression")
	}
}

func TestCompareTakesMinOfRepeatedSamples(t *testing.T) {
	// -count=N runs leave N lines per benchmark; Compare must use the
	// fastest sample on each side (benchstat's best-of rule).
	old := snap(
		bench("p", "BenchmarkA-8", 1500),
		bench("p", "BenchmarkA-8", 1000), // old best
		bench("p", "BenchmarkA-8", 1300),
	)
	new := snap(
		bench("p", "BenchmarkA-8", 1100), // new best
		bench("p", "BenchmarkA-8", 1900),
	)
	c := Compare(old, new)
	if len(c.Deltas) != 1 {
		t.Fatalf("%d deltas, want 1 (samples must collapse)", len(c.Deltas))
	}
	if d := c.Deltas[0]; d.OldNs != 1000 || d.NewNs != 1100 {
		t.Fatalf("delta uses %v/%v, want best-of 1000/1100", d.OldNs, d.NewNs)
	}
	// A benchmark repeated only in old must appear once in OldOnly.
	old2 := snap(bench("p", "BenchmarkGone-8", 5), bench("p", "BenchmarkGone-8", 6),
		bench("p", "BenchmarkA-8", 1))
	c2 := Compare(old2, snap(bench("p", "BenchmarkA-8", 1)))
	if len(c2.OldOnly) != 1 {
		t.Fatalf("OldOnly = %v, want one entry", c2.OldOnly)
	}
}
