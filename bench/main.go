// Command bench is the repository benchmark. It times what a user of this
// reproduction runs: `cubie all` from an empty and from a filled run cache,
// the `cubie serve` figure path, and a CG solve over the MMU SpMV operator.
// It checks every output against committed digests and error bounds, and
// prints the end-to-end metrics. With --trace 1 it then replays each layer
// of the pipeline under spans recorded here, around calls into the layers'
// public functions, and prints the per-layer metrics. README.md lists the
// workloads and metrics and says which layer should move which number.
//
// Run it from the root of a checkout:
//
//	bash bench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/kernels/spgemm"
	"repro/internal/mmu"
	"repro/internal/packcache"
	"repro/internal/par"
	"repro/internal/prestage"
)

// workloadDef is one benchmark workload: measure runs its set-up and its
// untraced samples; traced runs one sample under the tracer.
type workloadDef struct {
	name    string
	measure func(b *bench) error
	traced  func(b *bench, tr *tracer, parent span) (time.Duration, error)
}

var workloads = []workloadDef{
	{"campaign-cold", (*bench).measureCampaignCold, (*bench).tracedCampaignCold},
	{"campaign-warm", (*bench).measureCampaignWarm, (*bench).tracedCampaignWarm},
	{"serve-figures", (*bench).measureServe, (*bench).tracedServe},
	{"cg-solve", (*bench).measureCG, (*bench).tracedCG},
}

// inProcessKnobs are the behaviour switches the in-process layers read at
// init. The benchmark refuses to run with any of them set, because its own
// process would then measure a different route than the cubie it builds.
var inProcessKnobs = []string{
	mmu.PanelDisableEnv, packcache.DisableEnv, prestage.DisableEnv, spgemm.DenseEnv, par.EnvWorkers,
}

// bench is the state of one benchmark run.
type bench struct {
	ctx    context.Context
	out    string // build output dir; traces go to out/trace
	dir    string // scratch dir of this run, removed on exit
	cubie  string // built cubie binary
	golden golden
	seed   int64
	budget time.Duration // how long the untraced samples run
	ref    *refProbe

	// Untraced measurements.
	setups  []timing  // one per set-up
	samples []timing  // one per successful sample
	rssMB   []float64 // peak RSS of the measured process
	hot     []float64 // milliseconds per serve-figures hot-phase request
	hotTime float64   // seconds the hot phase ran

	attempted, failed int

	// State a workload leaves for the traced pass.
	kept   string            // the kept fill of this cubie binary, once known
	filled string            // a run cache of this run that one cold `cubie all` filled
	bodies map[string][]byte // checked figure bodies from the last first pass
	cg     []cgSystem        // the CG systems of the last set-up
}

// timing is the wall time of one set-up or sample and the mean time of the
// reference probes just before and just after it, both in seconds.
type timing struct {
	wall, ref float64
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run (campaign-cold, campaign-warm, serve-figures, cg-solve)")
	seed := flag.Int64("seed", 1, "seed of the serve request order and the CG right-hand sides")
	seconds := flag.Int("seconds", 10, "seconds of untraced samples")
	traceFlag := flag.Int("trace", 0, "1 runs a traced sample and the per-layer replay after the samples")
	flag.Parse()

	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		return 2
	}
	for _, k := range inProcessKnobs {
		if os.Getenv(k) != "" {
			fmt.Fprintf(os.Stderr, "bench: %s is set; unset it to measure the default routes\n", k)
			return 2
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := newBench(ctx, root, filepath.Join(root, ".bench_build"), *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	if err := wl.measure(b); err != nil {
		b.fail(err)
	}
	results := b.endToEnd()
	printMetrics(results)
	b.printReportOnly()
	if *traceFlag == 1 && b.failed == 0 {
		layers, err := b.tracedPass(wl)
		if err != nil {
			b.fail(err)
		}
		printMetrics(layers)
		results = layers
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 1
	}
	if err := printJSON(b, results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// newBench loads the golden digests of the checkout at root and builds its
// cubie into out; the run's scratch dir goes under out/tmp. Build time is
// not part of any metric.
func newBench(ctx context.Context, root, out string, seed int64, budget time.Duration) (*bench, error) {
	g, err := loadGolden(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildCubie(ctx, root, out)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &bench{ctx: ctx, out: out, dir: dir, cubie: bin, golden: g, seed: seed, budget: budget, ref: newRefProbe()}, nil
}

// fail counts one failed operation.
func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
}

// check counts err, if any, as a failed operation and reports success.
func (b *bench) check(err error) bool {
	if err != nil {
		b.fail(err)
		return false
	}
	return true
}

// setUp runs a workload's set-up reps times and records the wall time of
// each between reference probes. The set-up is everything before the first
// timed sample, warm-up included.
func (b *bench) setUp(reps int, f func() error) error {
	before := b.ref.time()
	for range reps {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		after := b.ref.time()
		b.setups = append(b.setups, timing{wall, (before + after) / 2})
		before = after
	}
	return nil
}

// repeat runs next at least once, and again while the next sample is
// predicted, from the mean so far, to end within budget of the call. It
// records the wall time of each sample that reports success, between
// reference probes. Samples count their own failed operations; a failed
// sample is left out of the timings.
func (b *bench) repeat(budget time.Duration, sample func() (time.Duration, bool)) {
	start := time.Now()
	before := b.ref.time()
	for n := 1; b.ctx.Err() == nil; n++ {
		d, ok := sample()
		after := b.ref.time()
		if ok {
			b.samples = append(b.samples, timing{d.Seconds(), (before + after) / 2})
		}
		before = after
		if spent := time.Since(start); spent+spent/time.Duration(n) > budget {
			return
		}
	}
}

// endToEnd computes the end-to-end metrics from the untraced samples.
// setup_s and sample_s are medians of wall time at the reference speed (see
// probe.go). Peak RSS is the least over samples, because where the garbage
// collector happens to run moves one sample's peak by a fifth.
func (b *bench) endToEnd() []metric {
	return []metric{
		{"setup_s", atRefSpeed(b.setups), "s", len(b.setups)},
		{"sample_s", atRefSpeed(b.samples), "s", len(b.samples)},
		{"peak_rss_mb", quantile(b.rssMB, 0), "MB", len(b.rssMB)},
	}
}

// atRefSpeed returns the median of ts's wall times, each scaled by
// refNominal over its reference time.
func atRefSpeed(ts []timing) float64 {
	scaled := make([]float64, len(ts))
	for i, t := range ts {
		scaled[i] = t.wall * refNominal / t.ref
	}
	return median(scaled)
}

// walls returns ts's wall times.
func walls(ts []timing) []float64 {
	w := make([]float64, len(ts))
	for i, t := range ts {
		w[i] = t.wall
	}
	return w
}

// printReportOnly prints numbers that have no bound: the median wall time
// of a sample and the median reference time around the samples, which
// sample_s is made of; and, for serve-figures, the hot phase's latency
// median, its 99th percentile where at least ten requests lie beyond it,
// and its requests per second. The hot phase follows the host's wake-up
// latency between cores, which spreads its numbers by a quarter from run to
// run.
func (b *bench) printReportOnly() {
	line := func(name string, v float64, unit string, n int) {
		fmt.Printf("%-34s %14.6g %-5s (n=%d, report-only)\n", name, v, unit, n)
	}
	line("sample_wall_s", median(walls(b.samples)), "s", len(b.samples))
	refs := make([]float64, len(b.samples))
	for i, t := range b.samples {
		refs[i] = t.ref
	}
	line("ref_s", median(refs), "s", len(refs))
	if len(b.hot) == 0 {
		return
	}
	line("hot_p50_ms", median(b.hot), "ms", len(b.hot))
	if len(b.hot) >= 1000 {
		line("hot_p99_ms", quantile(b.hot, 0.99), "ms", len(b.hot))
	}
	line("hot_rps", float64(len(b.hot))/b.hotTime, "1/s", len(b.hot))
}

// tracedPass runs traced samples of the workload and then the per-layer
// replay, writes their spans as Chrome-trace JSON under .bench_build/trace,
// and returns the per-layer metrics.
func (b *bench) tracedPass(wl workloadDef) ([]metric, error) {
	// Traced samples for a quarter of the budget, at least one.
	tr := newTracer()
	var traced []float64
	start := time.Now()
	for first := true; first || time.Since(start) < b.budget/4; first = false {
		sp := tr.begin(span{}, "sample", wl.name)
		d, err := wl.traced(b, tr, sp)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("traced sample: %w", err)
		}
		traced = append(traced, d.Seconds())
	}
	if b.filled == "" {
		if err := b.warmCopy(); err != nil {
			return nil, err
		}
	}
	layers, err := b.replay(tr)
	if err != nil {
		return nil, err
	}
	layers.set("trace_overhead_frac", median(traced)/median(walls(b.samples))-1)

	dir := filepath.Join(b.out, "trace")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", wl.name, b.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "bench: trace written to", path)
	return layers.metrics()
}

// printMetrics prints one "name value unit (n=count)" line per metric.
func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-34s %14.6g %-5s (n=%d)\n", m.name, m.value, m.unit, m.n)
	}
}

// printJSON prints the result line.
func printJSON(b *bench, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]value{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if b.failed == 0 {
				return fmt.Errorf("metric %s has no samples", m.name)
			}
			v = 0 // a failed run reports what it has; correct is false
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	if out.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
