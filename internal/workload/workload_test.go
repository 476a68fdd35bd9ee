package workload

import (
	"testing"

	"repro/internal/sim"
)

// fake is a minimal Workload for contract tests.
type fake struct{}

func (fake) Name() string         { return "Fake" }
func (fake) Quadrant() int        { return 1 }
func (fake) Dwarf() string        { return "Test" }
func (fake) Variants() []Variant  { return []Variant{Baseline, TC} }
func (fake) Representative() Case { return Case{Name: "a"} }
func (fake) Repeats() int         { return 1 }
func (fake) Cases() []Case        { return []Case{{Name: "a"}, {Name: "b", Dims: []int{2}}} }
func (fake) Run(Case, Variant) (*Result, error) {
	return &Result{Profile: sim.Profile{VectorFLOPs: 1}, Work: 1, MetricName: "X"}, nil
}
func (w fake) Profile(c Case, v Variant) (*Result, error) { return w.Run(c, v) }
func (fake) Reference(Case) ([]float64, error)            { return []float64{1}, nil }

func TestFindCase(t *testing.T) {
	w := fake{}
	c, err := FindCase(w, "b")
	if err != nil || c.Dims[0] != 2 {
		t.Fatalf("FindCase(b) = %v, %v", c, err)
	}
	if _, err := FindCase(w, "zzz"); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestHasVariant(t *testing.T) {
	w := fake{}
	if !HasVariant(w, TC) || !HasVariant(w, Baseline) {
		t.Fatal("declared variants not found")
	}
	if HasVariant(w, CCE) {
		t.Fatal("undeclared variant reported")
	}
}

func TestVariantConstants(t *testing.T) {
	// The paper's Section 5.2 names, pinned.
	if Baseline != "Baseline" || TC != "TC" || CC != "CC" || CCE != "CC-E" {
		t.Fatal("variant names drifted from the paper")
	}
}
