// Warm-run equality: a harness replaying a populated run cache must start
// zero workload executions and still emit bitwise-identical figure output.
// This is the process-level contract behind warm `cubie all`; it lives in
// an external test package because it exercises the exported surface the
// CLI uses (New, AttachCache, Figure3, Table6, the CSV writers).
package harness_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runcache"
	"repro/internal/workload"
)

// runsStarted reads the global execution counter (get-or-create returns
// the instrument the harness increments).
func runsStarted() uint64 {
	return metrics.NewCounter("cubie_harness_runs_started_total",
		"Workload executions the harness actually started (cache misses).").Value()
}

func figure3CSV(t *testing.T, h *harness.Harness) []byte {
	t.Helper()
	cells, err := h.Figure3(device.All())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WritePerfCSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func table6CSV(t *testing.T, h *harness.Harness) []byte {
	t.Helper()
	rows, err := h.Table6()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteTable6CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memosComputed reads the global memo computation counter.
func memosComputed() uint64 {
	return metrics.NewCounter("cubie_harness_memos_computed_total",
		"Memoized dataset values computed (found neither in memory nor in the run cache).").Value()
}

// TestWarmHarnessBitIdenticalZeroRuns renders the whole campaign cold into
// a fresh cache, then replays it on a brand-new harness: zero executions,
// zero memo computations, byte-identical `cubie all` text and Figure 3 /
// Table 6 CSV.
func TestWarmHarnessBitIdenticalZeroRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole cold campaign")
	}
	cache, err := runcache.OpenWithFingerprint(t.TempDir(), "warm-equality-test")
	if err != nil {
		t.Fatal(err)
	}
	renderAll := func(h *harness.Harness) []byte {
		var buf bytes.Buffer
		if err := h.RenderAll(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cold := harness.New().AttachCache(cache)
	coldAll := renderAll(cold)
	coldF3 := figure3CSV(t, cold)
	coldT6 := table6CSV(t, cold)

	runs0, memos0 := runsStarted(), memosComputed()
	warm := harness.New().AttachCache(cache)
	warmAll := renderAll(warm)
	warmF3 := figure3CSV(t, warm)
	warmT6 := table6CSV(t, warm)
	if started := runsStarted() - runs0; started != 0 {
		t.Fatalf("warm harness started %d executions, want 0", started)
	}
	if computed := memosComputed() - memos0; computed != 0 {
		t.Fatalf("warm harness computed %d memos, want 0", computed)
	}

	if !bytes.Equal(coldAll, warmAll) {
		t.Error("warm RenderAll output differs from cold run")
	}
	if !bytes.Equal(coldF3, warmF3) {
		t.Error("warm Figure 3 CSV differs from cold run")
	}
	if !bytes.Equal(coldT6, warmT6) {
		t.Error("warm Table 6 CSV differs from cold run")
	}
}

// TestCacheOffBypasses: CUBIE_CACHE=off yields a nil cache; a harness with
// it executes every request (no reads) and persists nothing (no writes).
func TestCacheOffBypasses(t *testing.T) {
	t.Setenv(runcache.Env, "off")
	cache := runcache.FromEnv()
	if cache != nil {
		t.Fatalf("CUBIE_CACHE=off must disable the cache, got dir %q", cache.Dir())
	}

	before := runsStarted()
	h := harness.New().AttachCache(cache)
	if _, _, err := h.RunOne("Reduction", "", workload.TC); err != nil {
		t.Fatal(err)
	}
	if started := runsStarted() - before; started != 1 {
		t.Fatalf("disabled cache: started %d executions, want 1", started)
	}

	// A second harness (fresh in-memory cache, same nil disk cache) must
	// execute again: nothing was written anywhere.
	h2 := harness.New().AttachCache(runcache.FromEnv())
	if _, _, err := h2.RunOne("Reduction", "", workload.TC); err != nil {
		t.Fatal(err)
	}
	if started := runsStarted() - before; started != 2 {
		t.Fatalf("disabled cache must not persist across harnesses: %d executions, want 2", started)
	}
}

// TestWarmAblationSectionZeroRunsZeroWrites renders the ablation section
// cold into a fresh cache, then on a brand-new harness over that cache:
// the warm pass starts no executions, writes no entries (every run and
// every dataset-level ablation arm is a hit; a miss would Put), and prints
// byte-identical text.
func TestWarmAblationSectionZeroRunsZeroWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("every representative CC run plus the SpGEMM cases")
	}
	writes := metrics.NewCounter("cubie_runcache_writes_total",
		"Run-cache entries written (atomic tmp+rename).")
	cache, err := runcache.OpenWithFingerprint(t.TempDir(), "warm-ablation-test")
	if err != nil {
		t.Fatal(err)
	}
	render := func(h *harness.Harness) []byte {
		var buf bytes.Buffer
		if err := h.RenderAblationSection(&buf, device.H200()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := render(harness.New().AttachCache(cache))
	// The dataset-level arms (DASP padding, BFS relabel) are memoized too.
	if arms, _ := filepath.Glob(filepath.Join(cache.Dir(), runcache.KindAblation+"-*.json")); len(arms) != 2 {
		t.Fatalf("cold ablation section stored %d ablation entries, want 2", len(arms))
	}

	runs0, writes0 := runsStarted(), writes.Value()
	warm := render(harness.New().AttachCache(cache))
	if started := runsStarted() - runs0; started != 0 {
		t.Errorf("warm ablation section started %d executions, want 0", started)
	}
	if n := writes.Value() - writes0; n != 0 {
		t.Errorf("warm ablation section wrote %d run-cache entries, want 0", n)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm ablation section differs from the cold render:\n%s\nvs\n%s", warm, cold)
	}
}
