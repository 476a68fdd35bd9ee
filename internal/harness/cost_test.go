package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/format"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// costFile is the committed cost table cost reads. Regenerate it from
// traced cold campaigns with
//
//	go test ./internal/harness -run TestCostTable -cost-trace a.json,b.json,c.json
//
// where each file is the --trace-host output of `cubie all` on an empty
// run cache (docs/PERFORMANCE.md).
const costFile = "costs.go"

var costTrace = flag.String("cost-trace", "", "rewrite "+costFile+" from these comma-separated --trace-host files of cold `cubie all` runs")

// traceCosts folds cold campaigns' Chrome traces into the cost table:
// each memo's mean span seconds, and per workload the mean seconds of its
// harness-run spans of each kind.
func traceCosts(paths []string) (map[string]float64, map[string]runCost, error) {
	h := New()
	type sum struct{ secs, n [3]float64 }
	memoSums := map[string]*sum{}
	sums := map[string]*sum{}
	add := func(m map[string]*sum, name string, kind int, secs float64) {
		if m[name] == nil {
			m[name] = &sum{}
		}
		m[name].secs[kind] += secs
		m[name].n[kind]++
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var tr struct {
			TraceEvents []struct {
				Cat, Name, Ph string
				Dur           float64 // µs
			}
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, e := range tr.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			secs := e.Dur / 1e6
			if d, ok := memoDefs[e.Name]; ok && d.cat == e.Cat {
				add(memoSums, e.Name, 0, secs)
				continue
			}
			if e.Cat != "harness-run" {
				continue
			}
			wl, rest, _ := strings.Cut(e.Name, "|")
			i := strings.LastIndex(rest, "|")
			if i < 0 {
				return nil, nil, fmt.Errorf("%s: run span %q is not workload|case|variant", path, e.Name)
			}
			w, err := h.Suite.ByName(wl)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: run span %q: %w", path, e.Name, err)
			}
			kind := 1 // profiles
			switch {
			case rest[i+1:] == string(RefVariant):
				kind = 2
			case rest[:i] == w.Representative().Name:
				kind = 0
			}
			add(sums, wl, kind, secs)
		}
	}
	mean := func(s *sum, k int) float64 {
		if s.n[k] == 0 {
			return 0
		}
		return s.secs[k] / s.n[k]
	}
	memos := map[string]float64{}
	for name := range memoDefs {
		s, ok := memoSums[name]
		if !ok {
			return nil, nil, fmt.Errorf("no span of memo %s; trace cold `cubie all` runs", name)
		}
		memos[name] = mean(s, 0)
	}
	runs := map[string]runCost{}
	for wl, s := range sums {
		runs[wl] = runCost{executes: mean(s, 0), profiles: mean(s, 1), reference: mean(s, 2)}
	}
	return memos, runs, nil
}

// renderCosts writes the cost table as the Go source of costFile. Seconds
// keep three significant digits, and a traced key no shorter than a
// microsecond reads as one, so every traced kind costs more than nothing.
func renderCosts(memos map[string]float64, runs map[string]runCost) ([]byte, error) {
	secs := func(v float64) string {
		if v == 0 {
			return "0"
		}
		return strconv.FormatFloat(max(v, 1e-6), 'g', 3, 64)
	}
	var b bytes.Buffer
	b.WriteString(`// Code generated by TestCostTable from a traced cold ` + "`cubie all`" + `; DO NOT EDIT.

// Regenerate with
//
//	go test ./internal/harness -run TestCostTable -cost-trace a.json,b.json,c.json
//
// (docs/PERFORMANCE.md, "One cost model in seconds").

package harness

// memoSecs is each memo's traced compute seconds.
var memoSecs = map[string]float64{
`)
	names := make([]string, 0, len(memos))
	for name := range memos {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%q: %s,\n", name, secs(memos[name]))
	}
	b.WriteString(`}

// runSecs is each workload's mean traced seconds per run key of each kind.
var runSecs = map[string]runCost{
`)
	names = names[:0]
	for wl := range runs {
		names = append(names, wl)
	}
	slices.Sort(names)
	for _, wl := range names {
		c := runs[wl]
		fmt.Fprintf(&b, "%q: {executes: %s, profiles: %s, reference: %s},\n",
			wl, secs(c.executes), secs(c.profiles), secs(c.reference))
	}
	b.WriteString("}\n")
	return format.Source(b.Bytes())
}

// TestCostTable rewrites costFile from the -cost-trace files. Without the flag it
// checks that the committed file is the generator's rendering of the
// table it holds, so the table is only ever changed by regenerating it.
func TestCostTable(t *testing.T) {
	if *costTrace != "" {
		memos, runs, err := traceCosts(strings.Split(*costTrace, ","))
		if err != nil {
			t.Fatal(err)
		}
		src, err := renderCosts(memos, runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(costFile, src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := renderCosts(memoSecs, runSecs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(costFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is not the rendering of its own table; regenerate it with -cost-trace", costFile)
	}
}

// TestCostCoversPlan: every key of the campaign plan and of PlanAll (the
// references among them) resolves to a cost above zero, so no key falls
// to the end of the order for want of a table entry. It checks coverage,
// not values, which depend on the host that traced them.
func TestCostCoversPlan(t *testing.T) {
	h := New()
	keys := append(h.PlanCampaign(), h.PlanAll()...)
	for _, k := range keys {
		j, err := h.resolveJob(k)
		if err != nil {
			t.Fatal(err)
		}
		if !(j.cost > 0) {
			t.Errorf("%s: cost %v, want > 0", k, j.cost)
		}
	}
}
