package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCatalogNamesUniqueAndResolvable: every catalog entry has a distinct
// name, a title, a renderer, and FigureByName finds it.
func TestCatalogNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	inAll := 0
	for _, f := range Catalog() {
		if f.Name == "" || f.Title == "" || f.Render == nil {
			t.Fatalf("catalog entry %+v incomplete", f)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate catalog name %q", f.Name)
		}
		seen[f.Name] = true
		got, ok := FigureByName(f.Name)
		if !ok || got.Name != f.Name {
			t.Fatalf("FigureByName(%q) = %+v, %v", f.Name, got, ok)
		}
		if f.InAll {
			inAll++
		}
	}
	if inAll != 17 {
		t.Fatalf("catalog has %d InAll entries, want 17 (the `cubie all` sections)", inAll)
	}
	if _, ok := FigureByName("no-such-figure"); ok {
		t.Fatal("FigureByName accepted an unknown name")
	}
}

// TestRenderFigureCheapSections: the run-free sections render standalone
// with their expected content.
func TestRenderFigureCheapSections(t *testing.T) {
	h := New()
	for name, want := range map[string]string{
		"suite":     "figure-7 repeats",
		"specs":     "H200",
		"quadrants": "Quadrant 1",
		"dwarfs":    "Sparse linear algebra",
		"observe":   "O9",
		"datasets":  "mycielskian17",
		"figure12":  "Figure 12",
	} {
		var sb strings.Builder
		if err := h.RenderFigure(&sb, name); err != nil {
			t.Fatalf("RenderFigure(%q): %v", name, err)
		}
		if !strings.Contains(sb.String(), want) {
			t.Errorf("RenderFigure(%q) output missing %q", name, want)
		}
	}
	if err := h.RenderFigure(&strings.Builder{}, "no-such-figure"); err == nil {
		t.Fatal("RenderFigure accepted an unknown name")
	}
}

// TestPlanByName: every advertised plan name resolves to a non-empty key
// set, unknown names error, "all" subsumes every other plan, and "table6"
// is the table6 memo alone.
func TestPlanByName(t *testing.T) {
	h := New()
	all := map[RunKey]bool{}
	keys, err := h.PlanByName("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		all[k] = true
	}
	for _, name := range PlanNames() {
		keys, err := h.PlanByName(name)
		if err != nil {
			t.Fatalf("PlanByName(%q): %v", name, err)
		}
		if len(keys) == 0 {
			t.Fatalf("PlanByName(%q) returned no keys", name)
		}
		for _, k := range keys {
			if !all[k] {
				t.Fatalf("plan %q key %s not in the whole-campaign plan", name, k)
			}
		}
	}
	if _, err := h.PlanByName("no-such-plan"); err == nil {
		t.Fatal("PlanByName accepted an unknown plan")
	}
	if keys, _ := h.PlanByName("table6"); len(keys) != 1 || keys[0] != memoPlanKey("table6") {
		t.Fatalf("PlanByName(table6) = %v, want the table6 memo key", keys)
	}
}

// TestProgressCountsCompletedKeys: Progress is zero before execution and
// counts exactly the completed keys afterwards.
func TestProgressCountsCompletedKeys(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Cases()[0].Name
	keys := []RunKey{
		{"GEMV", small, workload.TC},
		{"GEMV", small, workload.Baseline},
	}
	if got := h.Progress(keys); got != 0 {
		t.Fatalf("Progress before execution = %d, want 0", got)
	}
	if err := h.Execute(keys[:1]); err != nil {
		t.Fatal(err)
	}
	if got := h.Progress(keys); got != 1 {
		t.Fatalf("Progress after one key = %d, want 1", got)
	}
	if err := h.Execute(keys); err != nil {
		t.Fatal(err)
	}
	if got := h.Progress(keys); got != 2 {
		t.Fatalf("Progress after both keys = %d, want 2", got)
	}
}

// TestRenderFigureSpan: a render runs inside one host span of category
// render, named by the figure, and the span changes no output byte.
func TestRenderFigureSpan(t *testing.T) {
	h := New()
	var plain bytes.Buffer
	if err := h.RenderFigure(&plain, "specs"); err != nil {
		t.Fatal(err)
	}
	rec := trace.StartHost()
	defer trace.StopHost()
	var traced bytes.Buffer
	if err := h.RenderFigure(&traced, "specs"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Fatal("tracing changed the rendered bytes")
	}
	var spans []string
	for _, e := range rec.Events() {
		if e.Category == "render" {
			spans = append(spans, e.Name)
		}
	}
	if len(spans) != 1 || spans[0] != "specs" {
		t.Fatalf("render spans = %v, want [specs]", spans)
	}
}
