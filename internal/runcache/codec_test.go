package runcache

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// oddFloats holds the bit patterns a numeric encoding tends to lose: NaN
// payloads (quiet, signalling, negative), −0, ±Inf, subnormals and the
// extremes of the normal range.
var oddFloats = []float64{
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0x7ff0000000000abc),
	math.Float64frombits(0xfff8dead0000beef),
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -0.5, 1e-308,
}

// seq returns n floats cycling through oddFloats, scaled by position, so
// an output can span several codec chunks.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = oddFloats[i%len(oddFloats)] * float64(i+1)
	}
	return out
}

// sameBits reports whether a and b hold the same bits, nil-ness included.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// trickyName is a MetricName with JSON quotes and escapes, characters
// encoding/json escapes for HTML, and the output field's own text.
const trickyName = `q"uo\te\\ <b>&amp; "Output":"AAAA" ,"Output":null}`

func TestCodecRoundTripBitExact(t *testing.T) {
	outputs := map[string][]float64{
		"nil":             nil,
		"empty":           {},
		"odd":             oddFloats,
		"one":             {math.Copysign(0, -1)},
		"chunk-minus-one": seq(floatChunk - 1),
		"chunk":           seq(floatChunk),
		"chunk-plus-one":  seq(floatChunk + 1),
		"chunks":          seq(3*floatChunk + 5),
	}
	names := []string{"flops", "", trickyName}
	c := openTest(t, t.TempDir(), "fp-a")
	for label, out := range outputs {
		for _, metric := range names {
			want := &workload.Result{
				Profile:    sim.Profile{TensorFLOPs: 1e12, Launches: 3, Eff: sim.Efficiency{Tensor: 0.5}},
				Work:       math.SmallestNonzeroFloat64,
				MetricName: metric,
				Output:     out,
				InputUtil:  math.Copysign(0, -1),
				OutputUtil: 1,
			}
			c.PutResult("GEMM", label, metric, want)
			got, ok := c.GetResult("GEMM", label, metric)
			if !ok {
				t.Fatalf("%s/%q: result missed after Put", label, metric)
			}
			if !sameBits(got.Output, want.Output) || got.MetricName != metric ||
				got.Profile != want.Profile || math.Float64bits(got.Work) != math.Float64bits(want.Work) ||
				math.Float64bits(got.InputUtil) != math.Float64bits(want.InputUtil) || got.OutputUtil != 1 {
				t.Fatalf("%s/%q: result round trip is not bit-exact: got %+v", label, metric, got)
			}
		}
		c.PutFloats(KindReference, label, out)
		got, ok := c.GetFloats(KindReference, label)
		if !ok || !sameBits(got, out) {
			t.Fatalf("%s: float round trip is not bit-exact (hit %v)", label, ok)
		}
	}
}

// accuracyRows are Table 6 rows in the codec's corners: a nil Baseline
// (PiC has none), a nil CCE (Quadrant I), a subnormal Max and the largest
// finite float.
func accuracyRows() []accuracy.Row {
	return []accuracy.Row{
		{
			Workload:   "PiC",
			TCCC:       accuracy.Errors{Workload: "PiC", Variant: workload.TC, Avg: 1e-17, Max: math.SmallestNonzeroFloat64, Samples: 3},
			CCE:        &accuracy.Errors{Workload: "PiC", Variant: workload.CCE, Avg: 0.1, Max: math.MaxFloat64, Samples: 3},
			TCEqualsCC: true,
		},
		{
			Workload: "GEMM",
			Baseline: &accuracy.Errors{Workload: "GEMM", Variant: workload.Baseline, Avg: math.Float64frombits(0x000fffffffffffff), Max: 1.0000000000000002, Samples: 1 << 20},
			TCCC:     accuracy.Errors{Workload: "GEMM", Variant: workload.TC, Avg: 0, Max: 2.5e-16, Samples: 1 << 20},
		},
	}
}

// TestCodecAccuracyRowsBitExact: Table 6 rows round-trip through the
// accuracy kind with every float bit-exact and nil pointers kept nil.
func TestCodecAccuracyRowsBitExact(t *testing.T) {
	c := openTest(t, t.TempDir(), "fp-a")
	want := accuracyRows()
	c.Put(KindAccuracy, "table6", want)
	var got []accuracy.Row
	if !c.Get(KindAccuracy, "table6", &got) {
		t.Fatal("accuracy rows missed after Put")
	}
	sameErrors := func(a, b *accuracy.Errors) bool {
		if a == nil || b == nil {
			return a == b
		}
		return a.Workload == b.Workload && a.Variant == b.Variant && a.Samples == b.Samples &&
			math.Float64bits(a.Avg) == math.Float64bits(b.Avg) && math.Float64bits(a.Max) == math.Float64bits(b.Max)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Workload != w.Workload || g.TCEqualsCC != w.TCEqualsCC || !sameErrors(&g.TCCC, &w.TCCC) ||
			!sameErrors(g.Baseline, w.Baseline) || !sameErrors(g.CCE, w.CCE) {
			t.Fatalf("row %d round trip is not bit-exact:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// plantAndMiss writes data as the entry for the GEMM|rep|TC result (or the
// reference entry, when asFloats) and requires a silent, counted miss.
func plantAndMiss(t *testing.T, c *Cache, asFloats bool, data []byte) {
	t.Helper()
	kind, key := KindResult, ResultKey("GEMM", "rep", "TC")
	if asFloats {
		kind = KindReference
	}
	if err := os.WriteFile(c.path(kind, key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := corruptCount()
	var ok bool
	if asFloats {
		_, ok = c.GetFloats(kind, key)
	} else {
		_, ok = c.GetResult("GEMM", "rep", "TC")
	}
	if ok {
		t.Fatalf("entry %q must be a miss", data)
	}
	if corruptCount() != corrupt+1 {
		t.Fatalf("entry %q must be counted corrupt", data)
	}
}

// entryBytes returns the bytes Put writes for one value under fp.
func entryBytes(t *testing.T, fp, kind, key string, put func(*Cache)) []byte {
	t.Helper()
	c := openTest(t, t.TempDir(), fp)
	put(c)
	data, err := os.ReadFile(c.path(kind, key))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCodecRejects(t *testing.T) {
	key := ResultKey("GEMM", "rep", "TC")
	putRes := func(c *Cache) { c.PutResult("GEMM", "rep", "TC", sampleResult()) }
	valid := entryBytes(t, "fp-a", KindResult, key, putRes)
	validFloats := entryBytes(t, "fp-a", KindReference, key, func(c *Cache) {
		c.PutFloats(KindReference, key, []float64{1, 2, 3})
	})
	c := openTest(t, t.TempDir(), "fp-a")

	t.Run("truncated at every byte", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			plantAndMiss(t, c, false, valid[:n])
		}
		for n := 0; n < len(validFloats); n++ {
			plantAndMiss(t, c, true, validFloats[:n])
		}
	})

	rows := []struct {
		name     string
		asFloats bool
		data     []byte
	}{
		{"wrong fingerprint", false, entryBytes(t, "fp-b", KindResult, key, putRes)},
		{"wrong kind", true, entryBytes(t, "fp-a", KindFeatures, key, func(c *Cache) {
			c.PutFloats(KindFeatures, key, []float64{1, 2, 3})
		})},
		{"wrong key", false, entryBytes(t, "fp-a", KindResult, ResultKey("GEMM", "rep", "CC"), func(c *Cache) {
			c.PutResult("GEMM", "rep", "CC", sampleResult())
		})},
		{"trailing newline", false, append(bytes.Clone(valid), '\n')},
		{"trailing brace", false, append(bytes.Clone(valid), '}')},
		{"trailing bytes on floats", true, append(bytes.Clone(validFloats), " "...)},
		{"non-alphabet byte", false, replaceOutput(t, valid, func(s string) string { return "!" + s[1:] })},
		{"line breaks inside base64", false, replaceOutput(t, valid, func(s string) string { return s[:4] + "\r\n\r\n" + s[8:] })},
		{"escaped slash inside base64", false, replaceOutput(t, valid, func(s string) string { return `\/` + s[1:] })},
		{"length not a multiple of 8", false, replaceOutput(t, valid, func(string) string { return "AAAAAAAAAAAAAAAA" })},
		{"floats length not a multiple of 8", true, bytes.Replace(validFloats,
			[]byte(`"payload":"`), []byte(`"payload":"AAAAAAAA`), 1)},
		{"non-zero padding bits", true, bytes.Replace(entryBytes(t, "fp-a", KindReference, key, func(c *Cache) {
			c.PutFloats(KindReference, key, []float64{1})
		}), []byte(`8D8="`), []byte(`8D9="`), 1)},
		{"non-canonical head", false, bytes.Replace(valid, []byte(`{"Profile"`), []byte(`{ "Profile"`), 1)},
		{"output not last", false, []byte(`{"fingerprint":"fp-a","kind":"result","key":"GEMM|rep|TC","payload":` +
			`{"Profile":{},"Work":1,"MetricName":"m","Output":null,"InputUtil":0,"OutputUtil":0}}`)},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { plantAndMiss(t, c, r.asFloats, r.data) })
	}
}

// replaceOutput rewrites the base64 output of a result entry.
func replaceOutput(t *testing.T, entry []byte, edit func(string) string) []byte {
	t.Helper()
	i := bytes.LastIndex(entry, []byte(outputField+`"`))
	if i < 0 {
		t.Fatalf("no output field in %q", entry)
	}
	start := i + len(outputField) + 1
	end := start + bytes.IndexByte(entry[start:], '"')
	var out []byte
	out = append(out, entry[:start]...)
	out = append(out, edit(string(entry[start:end]))...)
	return append(out, entry[end:]...)
}

// TestEntriesAreJSONEnvelopes pins the contract the cache store's
// WriteEntry and readers of the raw files rely on: every entry Put writes
// is a JSON document that encoding/json decodes into envelope with the
// entry's own fingerprint, kind and key, under its EntryName.
func TestEntriesAreJSONEnvelopes(t *testing.T) {
	dir := t.TempDir()
	c := openTest(t, dir, `fp "<&>"`)
	c.PutResult("GEMM", "rep", "TC", sampleResult())
	c.PutResult("GEMM", "nil", trickyName, &workload.Result{MetricName: trickyName})
	c.PutFloats(KindReference, "ref|odd", oddFloats)
	c.PutFloats(KindReference, "ref|nil", nil)
	c.Put(KindFeatures, "graph-corpus|4|1", [][]float64{{1, 2}, {3, 4}})
	c.Put(KindAblation, "bfs-relabel", []struct{ Study string }{{"bfs-relabel"}})
	files := entryFiles(t, dir)
	if len(files) != 6 {
		t.Fatalf("want 6 entries, have %v", files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var e envelope
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s is not a JSON envelope: %v", filepath.Base(f), err)
		}
		if e.Fingerprint != c.fp || !strings.HasPrefix(filepath.Base(f), e.Kind+"-") ||
			EntryName(e.Fingerprint, e.Kind, e.Key) != filepath.Base(f) {
			t.Fatalf("%s decodes to (%q, %q, %q)", filepath.Base(f), e.Fingerprint, e.Kind, e.Key)
		}
		if err := c.WriteEntry(filepath.Base(f), data); err != nil {
			t.Fatalf("the cache store refuses %s: %v", filepath.Base(f), err)
		}
	}
}

// FuzzDecodeEntry hands arbitrary bytes straight to the entry reader, with
// no JSON pre-filter, as a result, as a float payload and as generic JSON
// values (feature matrices and Table 6 rows). The reader must never panic, and an entry it accepts must be the
// canonical one: Put of the decoded value writes the same bytes back.
func FuzzDecodeEntry(f *testing.F) {
	const fp, key = "fp-a", "GEMM|rep|TC"
	for _, put := range []func(*Cache){
		func(c *Cache) { c.PutResult("GEMM", "rep", "TC", sampleResult()) },
		func(c *Cache) { c.PutResult("GEMM", "rep", "TC", &workload.Result{MetricName: trickyName}) },
		func(c *Cache) { c.PutFloats(KindReference, key, oddFloats) },
		func(c *Cache) { c.PutFloats(KindReference, key, []float64{}) },
		func(c *Cache) { c.Put(KindFeatures, key, [][]float64{{1, 2}, {-0.5, 1e-308}}) },
		func(c *Cache) { c.Put(KindAccuracy, key, accuracyRows()) },
	} {
		_, data := seedEntry(f, fp, put)
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte(`{"fingerprint":"fp-a","kind":"result","key":"GEMM|rep|TC","payload":{"Output":"AAAAAAAAAAA="}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(kind string, v any, value func() any) {
			prefix := appendPrefix(nil, fp, kind, key)
			if !decodeEntry(data, prefix, v) {
				return
			}
			again, err := encodeEntry(fp, kind, key, value())
			if err != nil {
				t.Fatalf("accepted %s entry does not re-encode: %v", kind, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted %s entry is not canonical:\n got %q\nwant %q", kind, data, again)
			}
		}
		var res storedResult
		check(KindResult, &res, func() any { return res })
		var fs floats
		check(KindReference, &fs, func() any { return fs })
		var feats [][]float64
		check(KindFeatures, &feats, func() any { return feats })
		var rows []accuracy.Row
		check(KindAccuracy, &rows, func() any { return rows })
	})
}
