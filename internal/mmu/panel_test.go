package mmu

import (
	"math"
	"testing"

	"repro/internal/lcg"
)

// randomPanels builds kTiles packed A and B tiles plus a random accumulator.
func randomPanels(seed int64, kTiles int) (c, aPanel, bPanel []float64) {
	g := lcg.New(seed)
	c = make([]float64, M*N)
	aPanel = make([]float64, kTiles*M*K)
	bPanel = make([]float64, kTiles*K*N)
	g.Fill(c)
	g.Fill(aPanel)
	g.Fill(bPanel)
	return c, aPanel, bPanel
}

// TestDMMAPanelMatchesTileLoop pins the fused k-sweep bit-identical to the
// ascending loop of tile-at-a-time MMAs, the oracle route, for every kTiles
// in 0..17 (covering the empty sweep, the single-tile fast path, and long
// even/odd sweeps that end in a pair or in a lone tile).
func TestDMMAPanelMatchesTileLoop(t *testing.T) {
	for kTiles := 0; kTiles <= 17; kTiles++ {
		c, aPanel, bPanel := randomPanels(int64(kTiles)+1, kTiles)
		want := append([]float64(nil), c...)
		for kt := 0; kt < kTiles; kt++ {
			DMMATile(want, aPanel[kt*M*K:(kt+1)*M*K], bPanel[kt*K*N:(kt+1)*K*N])
		}
		got := append([]float64(nil), c...)
		DMMAPanel(got, aPanel, bPanel, kTiles)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("kTiles=%d: element %d differs: %v != %v", kTiles, i, got[i], want[i])
			}
		}
	}
}

// TestDMMAPanelBlockDepths pins each blocking depth of the fused
// micro-kernels bit-identical to the tile loop for every kTiles in 0..17:
// single tiles (dmmaTileInto), pairs with a lone-tile remainder
// (dmmaTilePairInto, DMMAPanel's sweep) into one accumulator, and quads with
// pair and lone-tile remainders (dmmaTileQuadInto, DMMAPanelPair's sweep)
// into the even/odd accumulators. Every depth runs the same per-element
// ascending-k FMA chain, so the blocking is invisible in the bits.
func TestDMMAPanelBlockDepths(t *testing.T) {
	aTile := func(a []float64, kt int) *[M * K]float64 { return (*[M * K]float64)(a[kt*M*K:]) }
	bTile := func(b []float64, kt int) *[K * N]float64 { return (*[K * N]float64)(b[kt*K*N:]) }
	same := func(depth string, kTiles int, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s kTiles=%d: element %d differs: %v != %v",
					depth, kTiles, i, got[i], want[i])
			}
		}
	}
	for kTiles := 0; kTiles <= 17; kTiles++ {
		c, aPanel, bPanel := randomPanels(int64(kTiles)+400, kTiles)

		want := append([]float64(nil), c...)
		wantE := append([]float64(nil), c...)
		wantO := make([]float64, M*N)
		for kt := 0; kt < kTiles; kt++ {
			a, b := aPanel[kt*M*K:(kt+1)*M*K], bPanel[kt*K*N:(kt+1)*K*N]
			DMMATile(want, a, b)
			if kt%2 == 0 {
				DMMATile(wantE, a, b)
			} else {
				DMMATile(wantO, a, b)
			}
		}

		var single [M * N]float64
		copy(single[:], c)
		for kt := 0; kt < kTiles; kt++ {
			dmmaTileInto(&single, aTile(aPanel, kt), bTile(bPanel, kt))
		}
		same("single", kTiles, single[:], want)

		var pair [M * N]float64
		copy(pair[:], c)
		kt := 0
		for ; kt+1 < kTiles; kt += 2 {
			dmmaTilePairInto(&pair, aTile(aPanel, kt), aTile(aPanel, kt+1),
				bTile(bPanel, kt), bTile(bPanel, kt+1))
		}
		if kt < kTiles {
			dmmaTileInto(&pair, aTile(aPanel, kt), bTile(bPanel, kt))
		}
		same("pair", kTiles, pair[:], want)

		var quadE, quadO [M * N]float64
		copy(quadE[:], c)
		kt = 0
		for ; kt+3 < kTiles; kt += 4 {
			dmmaTileQuadInto(&quadE, &quadO,
				(*[4 * M * K]float64)(aPanel[kt*M*K:]), (*[4 * K * N]float64)(bPanel[kt*K*N:]))
		}
		for ; kt < kTiles; kt++ {
			dst := &quadE
			if kt%2 == 1 {
				dst = &quadO
			}
			dmmaTileInto(dst, aTile(aPanel, kt), bTile(bPanel, kt))
		}
		same("quad even", kTiles, quadE[:], wantE)
		same("quad odd", kTiles, quadO[:], wantO)
	}
}

// TestDMMAPanelDisabledMatchesEnabled pins the retired CUBIE_NO_PANEL
// variable as ignored: with it set, DMMAPanel still runs the fused sweep
// (one panel counted per non-empty call, which the tile loop the variable
// once selected never counted), accounts the same kTiles tile executions as
// that loop, and matches it bitwise for every kTiles in 0..9.
func TestDMMAPanelDisabledMatchesEnabled(t *testing.T) {
	t.Setenv(PanelDisableEnv, "1")
	for kTiles := 0; kTiles <= 9; kTiles++ {
		c, aPanel, bPanel := randomPanels(int64(kTiles)+77, kTiles)

		tiles0 := metDMMATiles.Value()
		slow := append([]float64(nil), c...)
		for kt := 0; kt < kTiles; kt++ {
			DMMATile(slow, aPanel[kt*M*K:(kt+1)*M*K], bPanel[kt*K*N:(kt+1)*K*N])
		}
		tiles1, panels1 := metDMMATiles.Value(), metDMMAPanels.Value()
		fast := append([]float64(nil), c...)
		DMMAPanel(fast, aPanel, bPanel, kTiles)
		tiles2, panels2 := metDMMATiles.Value(), metDMMAPanels.Value()

		for i := range fast {
			if math.Float64bits(fast[i]) != math.Float64bits(slow[i]) {
				t.Fatalf("kTiles=%d: element %d differs: %v != %v", kTiles, i, fast[i], slow[i])
			}
		}
		if loop, panel := tiles1-tiles0, tiles2-tiles1; loop != uint64(kTiles) || panel != loop {
			t.Fatalf("kTiles=%d: tile counts: tile loop %d, DMMAPanel %d", kTiles, loop, panel)
		}
		wantPanels := uint64(0)
		if kTiles > 0 {
			wantPanels = 1
		}
		if got := panels2 - panels1; got != wantPanels {
			t.Fatalf("kTiles=%d: DMMAPanel counted %d fused panels, want %d", kTiles, got, wantPanels)
		}
	}
}

// TestDMMAPanelMatchesWarpFragments cross-checks the panel sweep against the
// explicit warp-register fragment path (DMMAWarp), the PTX-layout ground
// truth of the MMA semantics.
func TestDMMAPanelMatchesWarpFragments(t *testing.T) {
	const kTiles = 5
	c, aPanel, bPanel := randomPanels(31, kTiles)

	var fc FragC
	fc.Load(c)
	for kt := 0; kt < kTiles; kt++ {
		var fa FragA
		var fb FragB
		fa.Load(aPanel[kt*M*K : (kt+1)*M*K])
		fb.Load(bPanel[kt*K*N : (kt+1)*K*N])
		DMMAWarp(&fc, &fc, &fa, &fb)
	}
	want := make([]float64, M*N)
	fc.Store(want)

	got := append([]float64(nil), c...)
	DMMAPanel(got, aPanel, bPanel, kTiles)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d differs: %v != %v", i, got[i], want[i])
		}
	}
}

// TestDMMAPanelPairMatchesTileLoop pins the double-buffered sweep to the
// alternating even/odd DMMATile loop of the cudaSample GEMM.
func TestDMMAPanelPairMatchesTileLoop(t *testing.T) {
	for kTiles := 0; kTiles <= 17; kTiles++ {
		_, aPanel, bPanel := randomPanels(int64(kTiles)+1000, kTiles)
		wantE := make([]float64, M*N)
		wantO := make([]float64, M*N)
		for kt := 0; kt < kTiles; kt++ {
			dst := wantE
			if kt%2 == 1 {
				dst = wantO
			}
			DMMATile(dst, aPanel[kt*M*K:(kt+1)*M*K], bPanel[kt*K*N:(kt+1)*K*N])
		}
		gotE := make([]float64, M*N)
		gotO := make([]float64, M*N)
		DMMAPanelPair(gotE, gotO, aPanel, bPanel, kTiles)
		for i := range wantE {
			if gotE[i] != wantE[i] || gotO[i] != wantO[i] {
				t.Fatalf("kTiles=%d: element %d differs", kTiles, i)
			}
		}
	}
}

// TestDMMABatchMatchesTileLoop pins the batched independent products to the
// per-product DMMATile results.
func TestDMMABatchMatchesTileLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16} {
		g := lcg.New(int64(n) + 5)
		cPanel := make([]float64, n*M*N)
		aPanel := make([]float64, n*M*K)
		bPanel := make([]float64, n*K*N)
		g.Fill(cPanel)
		g.Fill(aPanel)
		g.Fill(bPanel)
		want := append([]float64(nil), cPanel...)
		for i := 0; i < n; i++ {
			DMMATile(want[i*M*N:(i+1)*M*N], aPanel[i*M*K:(i+1)*M*K], bPanel[i*K*N:(i+1)*K*N])
		}
		got := append([]float64(nil), cPanel...)
		DMMABatch(got, aPanel, bPanel, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d differs: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestPackA pins the panel-layout shim: tile t of the destination must hold
// columns 4t..4t+3 of the leading 8 source rows.
func TestPackA(t *testing.T) {
	const stride, kTiles = 12, 3
	src := make([]float64, M*stride)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, kTiles*M*K)
	PackA(dst, src, stride, kTiles)
	for kt := 0; kt < kTiles; kt++ {
		for r := 0; r < M; r++ {
			for c := 0; c < K; c++ {
				want := src[r*stride+kt*K+c]
				if got := dst[kt*M*K+r*K+c]; got != want {
					t.Fatalf("tile %d (%d,%d): %v != %v", kt, r, c, got, want)
				}
			}
		}
	}
}

// bmmaInputs builds a deterministic run of bit blocks, segment ids, and a
// frontier with a mix of hit, miss, and out-of-range segments.
func bmmaInputs(nBlocks int) (frags []BitFragA, colSegs []int32, frontier []uint64) {
	g := lcg.New(int64(nBlocks) * 7)
	word := func() uint64 { return uint64(g.Next())<<32 ^ uint64(g.Next()) }
	frags = make([]BitFragA, nBlocks)
	colSegs = make([]int32, nBlocks)
	frontier = make([]uint64, 9) // 4.5 segments: seg 4 is half-length
	for i := range frontier {
		if i%3 != 2 { // leave every third word zero so some segments miss
			frontier[i] = word()
		}
	}
	for i := range frags {
		for r := 0; r < BitM; r++ {
			frags[i][r][0] = word()
			frags[i][r][1] = word()
		}
		colSegs[i] = int32(i % 6) // includes segment 5: fully out of range
	}
	return frags, colSegs, frontier
}

// TestBMMAPanelMatchesAndPopc pins the word-batched pull sweep to the
// broadcast-B BMMAAndPopc loop: same row hits, same executed count.
func TestBMMAPanelMatchesAndPopc(t *testing.T) {
	frags, colSegs, frontier := bmmaInputs(13)

	var want [BitM]int32
	wantExec := 0
	var b BitFragB
	var c BitFragC
	for i := range frags {
		base := int(colSegs[i]) * BitWordsPerRow
		var seg0, seg1 uint64
		if base < len(frontier) {
			seg0 = frontier[base]
		}
		if base+1 < len(frontier) {
			seg1 = frontier[base+1]
		}
		if seg0 == 0 && seg1 == 0 {
			continue
		}
		wantExec++
		for col := 0; col < BitN; col++ {
			b[col][0], b[col][1] = seg0, seg1
		}
		for j := range c {
			c[j] = 0
		}
		BMMAAndPopc(&c, &frags[i], &b)
		for r := 0; r < BitM; r++ {
			want[r] += c[r*BitN]
		}
	}

	var got [BitM]int32
	exec := BMMAPanel(&got, frags, colSegs, frontier)
	if exec != wantExec {
		t.Fatalf("executed %d MMAs, want %d", exec, wantExec)
	}
	if got != want {
		t.Fatalf("row hits %v != %v", got, want)
	}
}

// TestDMMAPanelShortOperandsPanic pins the early panics on short panels.
func TestDMMAPanelShortOperandsPanic(t *testing.T) {
	c := make([]float64, M*N)
	short := make([]float64, M*K) // one tile
	b := make([]float64, 2*K*N)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short A panel")
		}
	}()
	DMMAPanel(c, short, b, 2)
}

// TestPanelFastPathsAllocFree pins the panel engine's hot paths to zero heap
// allocations: the accumulator residency must come from locals, not escapes.
func TestPanelFastPathsAllocFree(t *testing.T) {
	const kTiles = 8
	c, aPanel, bPanel := randomPanels(99, kTiles)
	cOdd := make([]float64, M*N)
	if n := testing.AllocsPerRun(100, func() {
		DMMAPanel(c, aPanel, bPanel, kTiles)
	}); n != 0 {
		t.Fatalf("DMMAPanel allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		DMMAPanelPair(c, cOdd, aPanel, bPanel, kTiles)
	}); n != 0 {
		t.Fatalf("DMMAPanelPair allocates %v times per call", n)
	}
	cBatch := make([]float64, 2*M*N)
	if n := testing.AllocsPerRun(100, func() {
		DMMABatch(cBatch, aPanel, bPanel, 2)
	}); n != 0 {
		t.Fatalf("DMMABatch allocates %v times per call", n)
	}
	frags, colSegs, frontier := bmmaInputs(9)
	var hits [BitM]int32
	if n := testing.AllocsPerRun(100, func() {
		BMMAPanel(&hits, frags, colSegs, frontier)
	}); n != 0 {
		t.Fatalf("BMMAPanel allocates %v times per call", n)
	}
}

func BenchmarkDMMAPanel8(b *testing.B) {
	c, aPanel, bPanel := randomPanels(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DMMAPanel(c, aPanel, bPanel, 8)
	}
}

func BenchmarkDMMATileLoop8(b *testing.B) {
	c, aPanel, bPanel := randomPanels(1, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for kt := 0; kt < 8; kt++ {
			DMMATile(c, aPanel[kt*M*K:(kt+1)*M*K], bPanel[kt*K*N:(kt+1)*K*N])
		}
	}
}
