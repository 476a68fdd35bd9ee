package sparse

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lcg"
)

// toCSRKeyed is the keyed-sort CSR build that COO.ToCSR replaced, kept as
// its oracle: entries are bucketed by row as (col, Add index) keys, each
// row's keys are sorted, and duplicates are summed in key order, which is
// Add order.
func toCSRKeyed(c *COO) *CSR {
	var es []cooEntry
	for k := 0; k <= len(c.chunks); k++ {
		es = append(es, c.chunk(k)...)
	}
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	if len(es) == 0 {
		return m
	}
	next := make([]int, c.Rows)
	for _, e := range es {
		next[e.i]++
	}
	sum := 0
	for i, n := range next {
		next[i] = sum
		sum += n
	}
	keys := make([]uint64, len(es))
	for k, e := range es {
		keys[next[e.i]] = uint64(uint32(e.j))<<32 | uint64(uint32(k))
		next[e.i]++
	}
	start := 0
	for i := 0; i < c.Rows; i++ {
		seg := keys[start:next[i]]
		slices.Sort(seg)
		prev := int32(-1)
		for _, kk := range seg {
			j, v := int32(kk>>32), es[uint32(kk)].v
			if j == prev {
				m.Vals[len(m.Vals)-1] += v
				continue
			}
			prev = j
			m.ColIdx = append(m.ColIdx, j)
			m.Vals = append(m.Vals, v)
		}
		m.RowPtr[i+1] = len(m.ColIdx)
		start = next[i]
	}
	return m
}

// TestToCSRMatchesKeyed pins ToCSR to the keyed oracle bit for bit over
// random matrices with heavy duplicates (a third of the entries repeat an
// earlier coordinate), wideByte values, and a first row long enough
// (> 256 distinct columns) to take the sort.Sort path. Every fifth seed
// draws columns in ascending Add order, wrapping at the column count, so
// most rows need no sort.
func TestToCSRMatchesKeyed(t *testing.T) {
	for seed := int64(1); seed <= 199; seed++ {
		g := lcg.New(seed)
		rows, cols := 1+g.Intn(40), 1+g.Intn(700)
		c := NewCOO(rows, cols)
		var is, js []int
		for n := g.Intn(3000); n > 0; n-- {
			i, j := g.Intn(rows), g.Intn(cols)
			switch {
			case len(is) > 0 && g.Intn(3) == 0:
				k := g.Intn(len(is))
				i, j = is[k], js[k]
			case g.Intn(2) == 0:
				i = 0
			}
			if seed%5 == 0 {
				j = len(is) % cols
			}
			is, js = append(is, i), append(js, j)
			c.Add(i, j, wideByte(byte(g.Intn(256))))
		}
		got := c.ToCSR()
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameCSR(t, fmt.Sprintf("seed %d", seed), got, toCSRKeyed(c))
	}
}

// TestCOOAddNoRegrowth pins Add's chunked storage: staging n entries
// allocates their 16 bytes each plus at most one chunk of slack, never a
// regrown copy of entries already stored.
func TestCOOAddNoRegrowth(t *testing.T) {
	const n = 1_000_000
	c := NewCOO(n, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		c.Add(k, k, 1)
	}
	runtime.ReadMemStats(&after)
	if d, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*n+16*cooMaxChunk); d > limit {
		t.Fatalf("%d Adds allocated %d bytes, want ≤ %d", n, d, limit)
	}
	runtime.KeepAlive(c)
}

func smallCSR(t *testing.T) *CSR {
	t.Helper()
	coo := NewCOO(3, 4)
	coo.Add(0, 1, 2)
	coo.Add(0, 3, 4)
	coo.Add(1, 0, 1)
	coo.Add(2, 2, 3)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCOOToCSR(t *testing.T) {
	m := smallCSR(t)
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(0, 3) != 4 || m.At(1, 0) != 1 || m.At(2, 2) != 3 {
		t.Fatal("values misplaced")
	}
	if m.At(0, 0) != 0 || m.At(2, 3) != 0 {
		t.Fatal("missing entries should read 0")
	}
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 1 || m.RowNNZ(2) != 1 {
		t.Fatal("row counts wrong")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(1, 1, 1.5)
	coo.Add(1, 1, 2.5)
	coo.Add(0, 0, 1)
	m := coo.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after duplicate merge", m.NNZ())
	}
	if m.At(1, 1) != 4 {
		t.Fatalf("At(1,1) = %v, want 4", m.At(1, 1))
	}
	// ((2^60 + −2^60) + 1) + 0.5 is 1.5 only in Add order: the reverse
	// order gives 0, keeping the last entry 0.5 and keeping the first 2^60.
	coo = NewCOO(1, 2)
	coo.Add(0, 1, -0.25)
	for _, v := range []float64{0x1p60, -0x1p60, 1, 0.5} {
		coo.Add(0, 0, v)
	}
	m = coo.ToCSR()
	if !slices.Equal(m.ColIdx, []int32{0, 1}) || !slices.Equal(m.Vals, []float64{1.5, -0.25}) {
		t.Fatalf("ColIdx %v Vals %v, want [0 1] [1.5 -0.25]", m.ColIdx, m.Vals)
	}
}

func TestCOOUnsortedInput(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(2, 0, 1)
	coo.Add(0, 2, 2)
	coo.Add(1, 1, 3)
	coo.Add(0, 0, 4)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 4 || m.At(0, 2) != 2 || m.At(1, 1) != 3 || m.At(2, 0) != 1 {
		t.Fatal("unsorted COO converted wrong")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := smallCSR(t)
	m.ColIdx[0] = 99 // out of range
	if err := m.Validate(); err == nil {
		t.Error("out-of-range column not caught")
	}
	m = smallCSR(t)
	m.RowPtr[1] = 5 // non-monotone / bad endpoint
	if err := m.Validate(); err == nil {
		t.Error("bad RowPtr not caught")
	}
	m = smallCSR(t)
	m.Vals = m.Vals[:2]
	if err := m.Validate(); err == nil {
		t.Error("val/idx length mismatch not caught")
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := lcg.New(5)
	coo := NewCOO(16, 12)
	for k := 0; k < 60; k++ {
		coo.Add(g.Intn(16), g.Intn(12), g.Symmetric())
	}
	m := coo.ToCSR()
	tt := m.Transpose().Transpose()
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
		t.Fatal("double transpose changed shape")
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.ColIdx[k])
			if tt.At(i, j) != m.Vals[k] {
				t.Fatalf("double transpose changed (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeMovesEntries(t *testing.T) {
	m := smallCSR(t)
	tr := m.Transpose()
	if tr.Rows != 4 || tr.Cols != 3 {
		t.Fatal("transpose shape wrong")
	}
	if tr.At(1, 0) != 2 || tr.At(3, 0) != 4 || tr.At(0, 1) != 1 {
		t.Fatal("transpose values wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransposePreservesNNZProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := lcg.New(seed)
		coo := NewCOO(20, 20)
		n := 1 + g.Intn(100)
		for k := 0; k < n; k++ {
			coo.Add(g.Intn(20), g.Intn(20), 1)
		}
		m := coo.ToCSR()
		return m.Transpose().NNZ() == m.NNZ() && m.Transpose().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestToCSRSteadyStateAllocs pins the counting-scatter build to its outputs
// and one scratch array: a build costs the CSR struct, RowPtr (also the
// scatter cursors), ColIdx, Vals and the per-column marker, with no pool
// and never per-row or per-entry scratch.
func TestToCSRSteadyStateAllocs(t *testing.T) {
	g := lcg.New(11)
	c := NewCOO(64, 64)
	for k := 0; k < 600; k++ {
		c.Add(g.Intn(64), g.Intn(64), g.Uniform())
	}
	avg := testing.AllocsPerRun(200, func() { c.ToCSR() })
	if avg > 6 {
		t.Fatalf("ToCSR steady state allocates %.1f objects per build, want ≤ 6 (outputs only)", avg)
	}
}

// TestToMBSRSteadyStateAllocs is the same contract for the blocked format:
// the stamp/slot/column arenas are pooled, so a warm build is the MBSR
// struct, RowPtr, and the single exact Blocks slab plus pool-return headers.
// The map-of-heap-blocks builder this replaced allocated per block row.
func TestToMBSRSteadyStateAllocs(t *testing.T) {
	g := lcg.New(13)
	c := NewCOO(96, 96)
	for k := 0; k < 900; k++ {
		c.Add(g.Intn(96), g.Intn(96), g.Uniform())
	}
	m := c.ToCSR()
	ToMBSR(m) // warm the pooled arenas
	avg := testing.AllocsPerRun(200, func() { ToMBSR(m) })
	if avg > 6 {
		t.Fatalf("ToMBSR steady state allocates %.1f objects per build, want ≤ 6 (outputs only)", avg)
	}
}
