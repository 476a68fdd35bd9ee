package runcache

import (
	"bytes"
	"encoding/binary"
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

// FuzzGoBuildIDNote feeds arbitrary executable heads to the ELF note
// reader. It must never panic or read outside the bytes it is given, and
// it returns "" unless it found a well-formed ID in them. Seeds: the test
// binary's own head, truncations of it, its Go note with an oversized
// namesz or descsz, its PT_NOTE with an oversized p_filesz or p_offset,
// and the note under a wrong name.
func FuzzGoBuildIDNote(f *testing.F) {
	head := selfHead(f)
	f.Add(head)
	if head[4] != elfClass64 || head[5] != elfData2LSB {
		f.Skip("the seeds are built for a little-endian ELF64 test binary")
	}
	note := bytes.Index(head, []byte("\x04\x00\x00\x00"+goNoteName)) - 8
	if note < 0 {
		f.Fatal("the test binary carries no Go build-ID note")
	}
	le := binary.LittleEndian
	phoff, phnum := le.Uint64(head[32:]), int(le.Uint16(head[56:]))
	ph := -1
	for i := 0; i < phnum; i++ {
		p := int(phoff) + 56*i
		if le.Uint32(head[p:]) == elfPTNote && int(le.Uint64(head[p+8:])) <= note {
			ph = p
		}
	}
	if ph < 0 {
		f.Fatal("no PT_NOTE program header covers the Go note")
	}
	for _, n := range []int{0, 4, 15, 63, int(phoff) + 56, ph + 20, note + 14, note + 40} {
		f.Add(head[:n])
	}
	patched := func(at int, put func([]byte)) []byte {
		b := bytes.Clone(head)
		put(b[at:])
		return b
	}
	f.Add(patched(note, func(b []byte) { le.PutUint32(b, math.MaxUint32) }))   // namesz
	f.Add(patched(note+4, func(b []byte) { le.PutUint32(b, math.MaxUint32) })) // descsz
	f.Add(patched(note+4, func(b []byte) { le.PutUint32(b, headSize) }))       // descsz past the head
	f.Add(patched(ph+32, func(b []byte) { le.PutUint64(b, math.MaxUint64) }))  // p_filesz
	f.Add(patched(ph+8, func(b []byte) { le.PutUint64(b, math.MaxUint64-8) })) // p_offset
	f.Add(patched(32, func(b []byte) { le.PutUint64(b, math.MaxUint64-55) }))  // e_phoff
	f.Add(patched(56, func(b []byte) { le.PutUint16(b, math.MaxUint16) }))     // e_phnum
	f.Add(patched(note+12, func(b []byte) { copy(b, "Gp") }))                  // note name
	f.Add(patched(note+16+20, func(b []byte) { b[0] = '.' }))                  // ID separator

	f.Fuzz(func(t *testing.T, head []byte) {
		id := goBuildIDNote(head[:len(head):len(head)])
		if id == "" {
			return
		}
		if !wellFormedBuildID(id) {
			t.Fatalf("returned malformed ID %q", id)
		}
		if !bytes.Contains(head, []byte(id)) {
			t.Fatalf("returned ID %q that is not in the head", id)
		}
	})
}
