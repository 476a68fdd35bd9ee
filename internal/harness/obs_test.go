package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRunOne exercises the cubie-run entry point: case resolution, variant
// validation, singleflight reuse, and the run metrics.
func TestRunOne(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("Reduction")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Cases()[0].Name

	started := metRunsStarted.Value()
	deduped := metRunsDeduped.Value()
	histBefore := runSeconds("Reduction").Count()

	c, res, err := h.RunOne("Reduction", small, workload.TC)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != small || res == nil || res.Work <= 0 {
		t.Fatalf("RunOne returned case %q, res %+v", c.Name, res)
	}
	if metRunsStarted.Value() != started+1 {
		t.Errorf("runs_started did not advance")
	}
	if runSeconds("Reduction").Count() != histBefore+1 {
		t.Errorf("per-workload latency histogram not observed")
	}

	// Second request for the same key must be served by the cache.
	if _, res2, err := h.RunOne("Reduction", small, workload.TC); err != nil || res2 != res {
		t.Fatalf("cached RunOne: res2=%p res=%p err=%v", res2, res, err)
	}
	if metRunsDeduped.Value() != deduped+1 {
		t.Errorf("runs_deduped did not advance on the cached request")
	}
	if metRunsStarted.Value() != started+1 {
		t.Errorf("cached request must not start a new run")
	}

	// Empty case name selects the representative case.
	if c, _, err := h.RunOne("Reduction", "", workload.TC); err != nil || c.Name != w.Representative().Name {
		t.Errorf("empty case resolved to %q (err %v), want representative %q",
			c.Name, err, w.Representative().Name)
	}

	if _, _, err := h.RunOne("NoSuchKernel", "", workload.TC); err == nil {
		t.Error("unknown workload must error")
	}
	if _, _, err := h.RunOne("Reduction", "no-such-case", workload.TC); err == nil {
		t.Error("unknown case must error")
	}
	if _, _, err := h.RunOne("GEMM", "", workload.Variant("bogus")); err == nil ||
		!strings.Contains(err.Error(), "not implemented") {
		t.Errorf("bad variant error = %v", err)
	}
}

// executeRefused is a suite workload whose Run fails: a run the harness
// only profiles succeeds through it, and a run the harness executes fails.
type executeRefused struct{ workload.Workload }

func (executeRefused) Run(workload.Case, workload.Variant) (*workload.Result, error) {
	return nil, errors.New("executed")
}

// TestRunProfilesNonRepresentativeCases: the harness executes a
// representative case (Run) and profiles every other one (Profile), and a
// profiled result is the workload's Profile, with no output.
func TestRunProfilesNonRepresentativeCases(t *testing.T) {
	h := New()
	gemm, err := h.Suite.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	w := executeRefused{gemm}
	large := gemm.Cases()[len(gemm.Cases())-1]
	res, err := h.run(w, large, workload.TC)
	if err != nil {
		t.Fatalf("non-representative run executed: %v", err)
	}
	want, err := gemm.Profile(large, workload.TC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("profiled result = %+v, want the workload's Profile %+v", res, want)
	}
	if _, err := h.run(w, gemm.Representative(), workload.TC); err == nil || err.Error() != "executed" {
		t.Fatalf("representative run err = %v, want it executed", err)
	}
}
