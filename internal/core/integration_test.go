package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSuiteDeterminism runs every workload variant twice and requires
// bit-identical outputs and identical profiles — the property that makes
// the whole evaluation reproducible.
func TestSuiteDeterminism(t *testing.T) {
	a, b := NewSuite(), NewSuite()
	for i, w := range a.Workloads() {
		w2 := b.Workloads()[i]
		c := w.Representative()
		for _, v := range w.Variants() {
			r1, err := w.Run(c, v)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name(), v, err)
			}
			r2, err := w2.Run(c, v)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name(), v, err)
			}
			if len(r1.Output) != len(r2.Output) {
				t.Fatalf("%s/%s: output lengths differ", w.Name(), v)
			}
			for j := range r1.Output {
				if r1.Output[j] != r2.Output[j] {
					t.Fatalf("%s/%s: nondeterministic output at %d", w.Name(), v, j)
				}
			}
			if r1.Profile != r2.Profile {
				t.Fatalf("%s/%s: nondeterministic profile", w.Name(), v)
			}
			if r1.Work != r2.Work {
				t.Fatalf("%s/%s: nondeterministic work", w.Name(), v)
			}
		}
	}
}

// TestAllProfilesValidEverywhere validates every profile of the full grid
// and simulates it on every device without panics or degenerate reports.
func TestAllProfilesValidEverywhere(t *testing.T) {
	s := NewSuite()
	for _, w := range s.Workloads() {
		for _, c := range w.Cases() {
			for _, v := range w.Variants() {
				res, err := w.Run(c, v)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", w.Name(), c.Name, v, err)
				}
				if err := res.Profile.Validate(); err != nil {
					t.Fatalf("%s/%s/%s: %v", w.Name(), c.Name, v, err)
				}
				if res.Work <= 0 {
					t.Fatalf("%s/%s/%s: non-positive work", w.Name(), c.Name, v)
				}
				for _, spec := range device.All() {
					r := sim.Run(spec, res.Profile)
					if !(r.Time > 0) || math.IsInf(r.Time, 0) {
						t.Fatalf("%s/%s/%s on %s: time %v",
							w.Name(), c.Name, v, spec.Name, r.Time)
					}
					if r.AvgPower < spec.IdleWatts || r.AvgPower > spec.TDPWatts {
						t.Fatalf("%s/%s/%s on %s: power %v outside [idle, TDP]",
							w.Name(), c.Name, v, spec.Name, r.AvgPower)
					}
				}
			}
		}
	}
}

// TestVariantsIssueTheRightUnits pins the unit split of Section 5.2: TC
// variants put their FP work on the tensor (or bit) unit, CC/CC-E/baseline
// on the vector unit.
func TestVariantsIssueTheRightUnits(t *testing.T) {
	s := NewSuite()
	for _, w := range s.Workloads() {
		for _, v := range w.Variants() {
			res, err := w.Run(w.Representative(), v)
			if err != nil {
				t.Fatal(err)
			}
			p := res.Profile
			switch v {
			case workload.TC:
				if p.TensorFLOPs == 0 && p.BitOps == 0 {
					t.Errorf("%s/TC issues no MMU work", w.Name())
				}
				if p.VectorFLOPs > p.TensorFLOPs && p.BitOps == 0 {
					t.Errorf("%s/TC mostly on the vector unit", w.Name())
				}
			default:
				if p.TensorFLOPs != 0 || p.BitOps != 0 {
					t.Errorf("%s/%s issues MMU work", w.Name(), v)
				}
			}
		}
	}
}

// TestWorkIsVariantInvariant pins that the essential-work metric (the
// numerator of every throughput figure) is identical across variants — the
// variants do different amounts of *issued* work, but the useful work is a
// property of the case.
func TestWorkIsVariantInvariant(t *testing.T) {
	s := NewSuite()
	for _, w := range s.Workloads() {
		var work float64
		for i, v := range w.Variants() {
			res, err := w.Run(w.Representative(), v)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				work = res.Work
				continue
			}
			if res.Work != work {
				t.Errorf("%s: variant %s reports work %v, others %v",
					w.Name(), v, res.Work, work)
			}
		}
	}
}

// TestProfileIsRunWithoutOutput pins the workload contract the campaign
// relies on to profile every non-representative cell: over the full grid,
// Profile returns exactly what Run returns, with Output nil, and both
// reject a variant the workload does not implement.
func TestProfileIsRunWithoutOutput(t *testing.T) {
	s := NewSuite()
	for _, w := range s.Workloads() {
		for _, c := range w.Cases() {
			for _, v := range w.Variants() {
				what := w.Name() + "/" + c.Name + "/" + string(v)
				prof, err := w.Profile(c, v)
				if err != nil {
					t.Fatalf("%s: Profile: %v", what, err)
				}
				run, err := w.Run(c, v)
				if err != nil {
					t.Fatalf("%s: Run: %v", what, err)
				}
				if prof.Output != nil {
					t.Fatalf("%s: Profile returned %d outputs", what, len(prof.Output))
				}
				want := *run
				want.Output = nil
				if !reflect.DeepEqual(*prof, want) {
					t.Fatalf("%s: Profile = %+v, Run without Output = %+v", what, *prof, want)
				}
			}
		}
		if _, err := w.Profile(w.Representative(), "bogus"); err == nil {
			t.Errorf("%s: Profile accepted an unknown variant", w.Name())
		}
		if _, err := w.Run(w.Representative(), "bogus"); err == nil {
			t.Errorf("%s: Run accepted an unknown variant", w.Name())
		}
	}
}
