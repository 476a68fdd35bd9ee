package repro

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels/spgemm"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/packcache"
	"repro/internal/par"
	"repro/internal/prestage"
	"repro/internal/workload"
)

// outcome is one workload run: its result or its error.
type outcome struct {
	res *workload.Result
	err error
}

// runSuite runs every variant of each workload's representative case on s,
// in suite order or reversed, keyed by "<workload>/<variant>".
func runSuite(s *core.Suite, reverse bool) map[string]outcome {
	ws := s.Workloads()
	out := map[string]outcome{}
	for i := range ws {
		w := ws[i]
		if reverse {
			w = ws[len(ws)-1-i]
		}
		c := w.Representative()
		for _, v := range w.Variants() {
			res, err := w.Run(c, v)
			out[w.Name()+"/"+string(v)] = outcome{res, err}
		}
	}
	return out
}

// compareRuns reports every run in got that differs from want: error
// presence, Output bits, Profile or result metadata.
func compareRuns(t *testing.T, want, got map[string]outcome) {
	t.Helper()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("run counts differ or empty: %d vs %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing", key)
			continue
		}
		if (w.err == nil) != (g.err == nil) {
			t.Errorf("%s: error mismatch: %v vs %v", key, w.err, g.err)
			continue
		}
		if w.err != nil {
			continue
		}
		if len(w.res.Output) != len(g.res.Output) {
			t.Errorf("%s: output lengths differ: %d vs %d",
				key, len(w.res.Output), len(g.res.Output))
			continue
		}
		for i := range w.res.Output {
			if math.Float64bits(w.res.Output[i]) != math.Float64bits(g.res.Output[i]) {
				t.Errorf("%s: output[%d] differs bitwise: %v vs %v",
					key, i, w.res.Output[i], g.res.Output[i])
				break
			}
		}
		if !reflect.DeepEqual(w.res.Profile, g.res.Profile) {
			t.Errorf("%s: profiles differ:\nwant: %+v\ngot:  %+v",
				key, w.res.Profile, g.res.Profile)
		}
		if w.res.Work != g.res.Work || w.res.MetricName != g.res.MetricName ||
			w.res.InputUtil != g.res.InputUtil || w.res.OutputUtil != g.res.OutputUtil {
			t.Errorf("%s: result metadata differs", key)
		}
	}
}

// TestSuiteDeterminism is the suite-wide bit-identity contract over every
// route that can still be selected: each workload's representative case, in
// every variant, must produce the bit-identical Output and the identical
// Profile and metadata on every row of the route table. The rows cross the
// par worker count (one worker vs a pool of 8) with the SpGEMM accumulator
// regime (the adaptive fill-ratio switch production runs, and the dense and
// hash directories forced through the spgemm.SetAccumMode test seam).
//
// The engine only ever assigns whole output tiles to workers and merges
// reductions in fixed chunk order, and the accumulator regime only routes
// tiles to arena slots, so this holds exactly — not just to within
// round-off (Table 6's TC ≡ CC comparison depends on it).
func TestSuiteDeterminism(t *testing.T) {
	type route struct {
		workers int
		accum   spgemm.AccumMode
	}
	var routes []route
	for _, workers := range []int{1, 8} {
		for _, accum := range []spgemm.AccumMode{spgemm.AccumAdaptive, spgemm.AccumDense, spgemm.AccumHash} {
			routes = append(routes, route{workers, accum})
		}
	}
	accumName := map[spgemm.AccumMode]string{
		spgemm.AccumAdaptive: "auto", spgemm.AccumDense: "dense", spgemm.AccumHash: "hash",
	}
	runAll := func(r route) map[string]outcome {
		prevWorkers := par.SetWorkers(r.workers)
		prevAccum := spgemm.SetAccumMode(r.accum)
		defer func() {
			par.SetWorkers(prevWorkers)
			spgemm.SetAccumMode(prevAccum)
		}()
		return runSuite(core.NewSuite(), false)
	}

	want := runAll(routes[0])
	for _, r := range routes[1:] {
		name := fmt.Sprintf("workers=%d/accum=%s", r.workers, accumName[r.accum])
		t.Run(name, func(t *testing.T) { compareRuns(t, want, runAll(r)) })
	}
}

// TestSuitePanelDeterminism pins the retired CUBIE_NO_PANEL variable as
// ignored at suite level: with it set, every workload's representative case,
// in every variant, produces the same Output bits, Profile and metadata as
// without it, and executes the same number of fused panel sweeps and MMA
// tiles. The tile-at-a-time route the variable once selected counted no
// panels, so an equal, non-zero panel count shows the fused route ran both
// times.
func TestSuitePanelDeterminism(t *testing.T) {
	panels := metrics.NewShardedCounter("cubie_mmu_dmma_panels_total", "")
	tiles := metrics.NewShardedCounter("cubie_mmu_dmma_tiles_total", "")
	runAll := func() (map[string]outcome, uint64, uint64) {
		p0, t0 := panels.Value(), tiles.Value()
		out := runSuite(core.NewSuite(), false)
		return out, panels.Value() - p0, tiles.Value() - t0
	}

	want, wantPanels, wantTiles := runAll()
	if wantPanels == 0 {
		t.Fatal("the suite ran no fused panel sweeps")
	}
	t.Setenv(mmu.PanelDisableEnv, "1")
	got, gotPanels, gotTiles := runAll()
	compareRuns(t, want, got)
	if gotPanels != wantPanels || gotTiles != wantTiles {
		t.Errorf("with %s=1: %d panels / %d tiles, want %d / %d",
			mmu.PanelDisableEnv, gotPanels, gotTiles, wantPanels, wantTiles)
	}
}

// TestSuitePackCacheDeterminism is the per-call packing contract that
// replaced the packed-panel cache: GEMM and GEMV pack each whole operand per
// call into pooled scratch, so no state may survive from one call to the
// next. One suite run forward, then again in reverse workload order (each
// pooled buffer last written by a different workload or shape), then forward
// once more with the retired CUBIE_NO_PACKCACHE variable set, must all agree
// bitwise with a fresh suite's run.
func TestSuitePackCacheDeterminism(t *testing.T) {
	want := runSuite(core.NewSuite(), false)
	s := core.NewSuite()
	runSuite(s, false)
	t.Run("reversed", func(t *testing.T) { compareRuns(t, want, runSuite(s, true)) })
	t.Run("retired-env", func(t *testing.T) {
		t.Setenv(packcache.DisableEnv, "1")
		compareRuns(t, want, runSuite(s, false))
	})
}

// TestSuitePrestageDeterminism is the prestaged DASP slab contract: a
// suite's first run builds each SpMV layout's slabs (the prestage slab
// counter rises), a second run on the same suite reuses them (the counter
// stays put), and both runs agree bitwise with each other and with a fresh
// suite. The retired CUBIE_NO_PRESTAGE variable is set for the reuse run and
// changes nothing: ApplyDASP has no staged route left.
func TestSuitePrestageDeterminism(t *testing.T) {
	slabs := metrics.NewCounter("cubie_prestage_slabs_total", "")
	want := runSuite(core.NewSuite(), false)

	s := core.NewSuite()
	before := slabs.Value()
	cold := runSuite(s, false)
	built := slabs.Value() - before
	if built == 0 {
		t.Fatal("the cold run built no prestaged slabs")
	}
	t.Setenv(prestage.DisableEnv, "1")
	before = slabs.Value()
	warm := runSuite(s, false)
	if rebuilt := slabs.Value() - before; rebuilt != 0 {
		t.Errorf("the warm run rebuilt %d slabs, want 0 (cold run built %d)", rebuilt, built)
	}
	t.Run("cold", func(t *testing.T) { compareRuns(t, want, cold) })
	t.Run("warm", func(t *testing.T) { compareRuns(t, want, warm) })
}

// TestSpGEMMAccumDeterminism is the SpGEMM accumulator-arena contract over
// every case SpGEMM executes for real, not just the representative one: the
// dense stamped directory and the hash directory, forced through
// spgemm.SetAccumMode, must produce the bit-identical Output to the adaptive
// fill-ratio switch production runs — the directory regime only routes
// tiles to arena slots, never changes the addition order. The retired
// CUBIE_SPGEMM_DENSE variable is set against each forced regime and must not
// override it.
func TestSpGEMMAccumDeterminism(t *testing.T) {
	w, err := core.NewSuite().ByName("SpGEMM")
	if err != nil {
		t.Fatal(err)
	}
	runCases := func(mode spgemm.AccumMode) map[string][]float64 {
		prev := spgemm.SetAccumMode(mode)
		defer spgemm.SetAccumMode(prev)
		out := map[string][]float64{}
		for _, c := range w.Cases() {
			res, err := w.Run(c, workload.TC)
			if err != nil {
				t.Fatalf("%s (mode=%d): %v", c.Name, mode, err)
			}
			if res.Output != nil {
				out[c.Name] = res.Output
			}
		}
		return out
	}

	want := runCases(spgemm.AccumAdaptive)
	if len(want) == 0 {
		t.Fatal("SpGEMM executed no case")
	}
	for _, r := range []struct {
		name string
		mode spgemm.AccumMode
		env  string
	}{
		{"dense", spgemm.AccumDense, "0"},
		{"hash", spgemm.AccumHash, "1"},
	} {
		t.Run(r.name, func(t *testing.T) {
			t.Setenv(spgemm.DenseEnv, r.env)
			got := runCases(r.mode)
			if len(got) != len(want) {
				t.Fatalf("executed case counts differ: %d vs %d", len(got), len(want))
			}
			for name, wv := range want {
				gv := got[name]
				if len(gv) != len(wv) {
					t.Errorf("%s: output lengths differ: %d vs %d", name, len(gv), len(wv))
					continue
				}
				for i := range wv {
					if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
						t.Errorf("%s: output[%d] differs bitwise: %v vs %v", name, i, gv[i], wv[i])
						break
					}
				}
			}
		})
	}
}
