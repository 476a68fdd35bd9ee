package runcache

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// seedEntry returns the name and bytes of the one entry put writes into a
// scratch cache with fingerprint fp.
func seedEntry(f *testing.F, fp string, put func(*Cache)) (string, []byte) {
	f.Helper()
	c, err := OpenWithFingerprint(f.TempDir(), fp)
	if err != nil {
		f.Fatal(err)
	}
	put(c)
	files, err := filepath.Glob(filepath.Join(c.Dir(), "*.json"))
	if err != nil || len(files) != 1 {
		f.Fatalf("want 1 seed entry, have %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	return filepath.Base(files[0]), data
}

// FuzzWriteEntry feeds arbitrary peer bytes to the cache store's write
// path, Cache.WriteEntry(name, data). It must never panic: it either
// refuses the entry with an error, or stores an entry that a reader under
// the entry's own fingerprint then decodes, as a result and as a float
// payload, without panicking.
func FuzzWriteEntry(f *testing.F) {
	name, valid := seedEntry(f, "fp-a", func(c *Cache) {
		c.PutResult("GEMM", "rep", "TC", sampleResult())
	})
	f.Add(name, valid)
	f.Add(name, valid[:len(valid)/2]) // truncated
	floatsName, floatsEntry := seedEntry(f, "fp-a", func(c *Cache) {
		c.PutFloats(KindReference, "SpMV|rep|ref", []float64{1, -0.5, 1e-308})
	})
	f.Add(floatsName, floatsEntry)
	_, otherFP := seedEntry(f, "fp-b", func(c *Cache) {
		c.PutResult("GEMM", "rep", "TC", sampleResult())
	})
	f.Add(name, otherFP) // body addresses fp-b, name addresses fp-a
	f.Add(name, []byte("\x00\xffnot json{{"))
	f.Add("../escape.json", valid)
	// Seeds in the one-pass layout's corners: a nil output behind a head
	// whose string holds the output field's own text, NaN and −0 float
	// bits, an empty float payload, and the output moved out of last place.
	quotedName, quoted := seedEntry(f, "fp-a", func(c *Cache) {
		c.PutResult("GEMM", "rep", "TC", &workload.Result{MetricName: `"Output":"AAAA"}`})
	})
	f.Add(quotedName, quoted)
	oddName, odd := seedEntry(f, "fp-a", func(c *Cache) {
		c.PutFloats(KindReference, "SpMV|rep|ref", []float64{math.NaN(), math.Copysign(0, -1)})
	})
	f.Add(oddName, odd)
	emptyName, empty := seedEntry(f, "fp-a", func(c *Cache) {
		c.PutFloats(KindReference, "SpMV|rep|ref", []float64{})
	})
	f.Add(emptyName, empty)
	f.Add(name, bytes.Replace(valid, []byte(`,"Output":`), []byte(`,"Output":null,"Shadow":`), 1))

	f.Fuzz(func(t *testing.T, name string, data []byte) {
		dir := t.TempDir()
		store, err := OpenWithFingerprint(dir, "store")
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteEntry(name, data); err != nil {
			return
		}
		var e envelope
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("WriteEntry accepted bytes that are not an envelope: %v", err)
		}
		reader, err := OpenWithFingerprint(dir, e.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reader.GetResult("GEMM", "rep", "TC"); ok &&
			(e.Kind != KindResult || e.Key != ResultKey("GEMM", "rep", "TC")) {
			t.Fatalf("entry for %s %q answered the GEMM|rep|TC result", e.Kind, e.Key)
		}
		var res storedResult
		reader.Get(e.Kind, e.Key, &res)
		var fs floats
		reader.Get(e.Kind, e.Key, &fs)
	})
}
