// Warm-run equality: a harness replaying a populated run cache must start
// zero workload executions and still emit bitwise-identical figure output.
// This is the process-level contract behind warm `cubie all`; it lives in
// an external test package because it exercises the exported surface the
// CLI uses (New, AttachCache, Figure3, Table6, the CSV writers).
package harness_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
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

// readBytes reads the run cache's byte counter.
func readBytes() uint64 {
	return metrics.NewCounter("cubie_runcache_read_bytes_total",
		"Bytes read from run-cache entry files.").Value()
}

// goldenAll returns the committed SHA-256 of `cubie all` stdout: the "all"
// line of the benchmark's golden digests, read in place so both modules
// share one committed truth.
func goldenAll(t *testing.T) string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "bench", "testdata", "golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok && name == "all" {
			return sum
		}
	}
	t.Fatalf("no \"all\" digest in %s (%v)", f.Name(), sc.Err())
	return ""
}

// TestWarmHarnessBitIdenticalZeroRuns renders the whole campaign cold into
// a fresh cache, then replays it on a brand-new harness: zero executions,
// zero memo computations, under 1 MiB read from the cache, byte-identical
// Figure 3 / Table 6 CSV, and `cubie all` text matching the committed
// golden digest both cold and warm.
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

	runs0, memos0, read0 := runsStarted(), memosComputed(), readBytes()
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
	if read := readBytes() - read0; read >= 1<<20 {
		t.Errorf("warm harness read %d bytes from the run cache, want under 1 MiB", read)
	}

	want := goldenAll(t)
	for pass, out := range map[string][]byte{"cold": coldAll, "warm": warmAll} {
		if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s RenderAll digest %x, want the committed %s", pass, sum, want)
		}
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

// fpVariants counts the variants of the floating-point workloads: the runs
// whose representative outputs Table 6 measures.
func fpVariants(h *harness.Harness) (variants, workloads int) {
	for _, w := range h.Suite.Workloads() {
		if w.Name() != "BFS" {
			variants += len(w.Variants())
			workloads++
		}
	}
	return variants, workloads
}

// TestTable6MemoFallback computes Table 6 cold into a fresh cache, then
// deletes its accuracy entry: a fresh harness must recompute
// byte-identical rows by executing exactly one run per representative
// floating-point variant (the persisted results carry no output), while
// the references and the results come from the store.
func TestTable6MemoFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("every representative floating-point run and reference")
	}
	cache, err := runcache.OpenWithFingerprint(t.TempDir(), "table6-fallback-test")
	if err != nil {
		t.Fatal(err)
	}
	cold := table6CSV(t, harness.New().AttachCache(cache))
	entries, _ := filepath.Glob(filepath.Join(cache.Dir(), runcache.KindAccuracy+"-*.json"))
	if len(entries) != 1 {
		t.Fatalf("cold Table 6 stored %d accuracy entries, want 1", len(entries))
	}
	if err := os.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}

	h := harness.New().AttachCache(cache)
	variants, refs := fpVariants(h)
	runs0, cached0 := runsStarted(), runsCached()
	if got := table6CSV(t, h); !bytes.Equal(got, cold) {
		t.Errorf("recomputed Table 6 differs from the cold one:\n%s\nvs\n%s", got, cold)
	}
	if started := runsStarted() - runs0; started != uint64(variants) {
		t.Errorf("recomputing Table 6 started %d executions, want %d (one per representative variant)", started, variants)
	}
	if cached := runsCached() - cached0; cached != uint64(variants+refs) {
		t.Errorf("recomputing Table 6 loaded %d results and references from the store, want %d", cached, variants+refs)
	}
}

// runsCached reads the counter of runs and references loaded from the run
// cache.
func runsCached() uint64 {
	return metrics.NewCounter("cubie_harness_runs_cached_total",
		"Run requests served by the persistent run cache (loaded from disk, no execution).").Value()
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
