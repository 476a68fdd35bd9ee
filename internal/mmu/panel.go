// Panel-level MMA execution engine.
//
// The tile-at-a-time entry points (DMMATile, BMMAAndPopc) pay three taxes on
// every 8×8×4 step: the C tile is re-loaded and re-stored through a slice,
// slice indexing carries bounds checks the compiler cannot always hoist, and
// a sharded metrics increment lands per 512 FLOPs. Real MMA pipelines — see
// Sun et al., "Dissecting Tensor Cores via Microbenchmarks", and the BLIS
// packing literature — win precisely by keeping the accumulator fragment
// register-resident across the whole k-sweep and staging operands once per
// panel. The functions in this file give the functional model the same
// structure on the host CPU:
//
//   - DMMAPanel     — c(8×8) += Σ_kt a_kt(8×4)·b_kt(4×8), accumulator held in
//     a fixed-size local across all k-tiles.
//   - DMMAPanelPair — the software-pipelined double-buffered variant the
//     cudaSample GEMM uses: even k-tiles accumulate into cEven, odd into cOdd.
//   - DMMABatch     — n independent c_i += a_i·b_i products with one metrics
//     update (the SpGEMM paired-product sweep).
//   - BMMAPanel     — a word-batched run of broadcast-B b1 MMAs over packed
//     uint64 words (the BerryBees pull sweep), one counter update per run.
//
// Bit-identity is preserved by construction: the accumulation order for each
// output element is the exact ascending-k FMA chain DMMATile performs, so the
// paper's TC ≡ CC contract (Table 6) and the parallel==serial determinism
// contract hold unchanged. The panel functions are the only production
// route; the tile-at-a-time loop survives as the oracle that
// TestDMMAPanelMatchesTileLoop and friends pin them to bitwise, and the
// hand-derived vectors in chain_test.go pin the chain order itself.
package mmu

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/tensor"
)

// PanelDisableEnv is retired: cubie ignores it; only bench/'s start guard
// names it.
const PanelDisableEnv = "CUBIE_NO_PANEL"

// dmmaTileInto executes one 8×8×4 MMA step on array pointers with the
// accumulator resident: acc(8×8) += a(8×4)·b(4×8). Each output element's
// update is the ascending-k FMA chain of DMMATile — same operations, same
// order, no slice bounds checks.
func dmmaTileInto(acc *[M * N]float64, a *[M * K]float64, b *[K * N]float64) {
	for i := 0; i < M; i++ {
		a0, a1, a2, a3 := a[i*K], a[i*K+1], a[i*K+2], a[i*K+3]
		for j := 0; j < N; j++ {
			v := acc[i*N+j]
			v = math.FMA(a0, b[j], v)
			v = math.FMA(a1, b[N+j], v)
			v = math.FMA(a2, b[2*N+j], v)
			v = math.FMA(a3, b[3*N+j], v)
			acc[i*N+j] = v
		}
	}
}

// dmmaTilePairInto executes two consecutive 8×8×4 MMA steps with the
// accumulator loaded and stored once: acc(8×8) += a0(8×4)·b0(4×8) followed by
// a1(8×4)·b1(4×8). Each output element's update is the 8-FMA chain of
// dmmaTileInto on (a0,b0) then (a1,b1) — same operations, same order, so the
// fusion is bit-invisible — but the register-blocked sweep halves the
// accumulator load/store traffic of calling dmmaTileInto twice.
func dmmaTilePairInto(acc *[M * N]float64,
	a0, a1 *[M * K]float64, b0, b1 *[K * N]float64) {
	for i := 0; i < M; i++ {
		p0, p1, p2, p3 := a0[i*K], a0[i*K+1], a0[i*K+2], a0[i*K+3]
		q0, q1, q2, q3 := a1[i*K], a1[i*K+1], a1[i*K+2], a1[i*K+3]
		for j := 0; j < N; j++ {
			v := acc[i*N+j]
			v = math.FMA(p0, b0[j], v)
			v = math.FMA(p1, b0[N+j], v)
			v = math.FMA(p2, b0[2*N+j], v)
			v = math.FMA(p3, b0[3*N+j], v)
			v = math.FMA(q0, b1[j], v)
			v = math.FMA(q1, b1[N+j], v)
			v = math.FMA(q2, b1[2*N+j], v)
			v = math.FMA(q3, b1[3*N+j], v)
			acc[i*N+j] = v
		}
	}
}

// dmmaTileQuadInto executes four consecutive k-tiles of a double-buffered
// sweep in one register-blocked pass: tiles 0 and 2 of the packed quad
// accumulate into cE, tiles 1 and 3 into cO, exactly the even/odd assignment
// of the alternating DMMATile loop. Per accumulator element the FMA chain is
// ascending-k (tile 0 then 2 into cE, tile 1 then 3 into cO), so the fusion
// is bit-identical to four dmmaTileInto calls while touching each
// accumulator row once instead of four times.
func dmmaTileQuadInto(cE, cO *[M * N]float64,
	a *[4 * M * K]float64, b *[4 * K * N]float64) {
	for i := 0; i < M; i++ {
		e0, e1, e2, e3 := a[i*K], a[i*K+1], a[i*K+2], a[i*K+3]
		o0, o1, o2, o3 := a[M*K+i*K], a[M*K+i*K+1], a[M*K+i*K+2], a[M*K+i*K+3]
		f0, f1, f2, f3 := a[2*M*K+i*K], a[2*M*K+i*K+1], a[2*M*K+i*K+2], a[2*M*K+i*K+3]
		g0, g1, g2, g3 := a[3*M*K+i*K], a[3*M*K+i*K+1], a[3*M*K+i*K+2], a[3*M*K+i*K+3]
		for j := 0; j < N; j++ {
			ve := cE[i*N+j]
			ve = math.FMA(e0, b[j], ve)
			ve = math.FMA(e1, b[N+j], ve)
			ve = math.FMA(e2, b[2*N+j], ve)
			ve = math.FMA(e3, b[3*N+j], ve)
			ve = math.FMA(f0, b[2*K*N+j], ve)
			ve = math.FMA(f1, b[2*K*N+N+j], ve)
			ve = math.FMA(f2, b[2*K*N+2*N+j], ve)
			ve = math.FMA(f3, b[2*K*N+3*N+j], ve)
			cE[i*N+j] = ve
			vo := cO[i*N+j]
			vo = math.FMA(o0, b[K*N+j], vo)
			vo = math.FMA(o1, b[K*N+N+j], vo)
			vo = math.FMA(o2, b[K*N+2*N+j], vo)
			vo = math.FMA(o3, b[K*N+3*N+j], vo)
			vo = math.FMA(g0, b[3*K*N+j], vo)
			vo = math.FMA(g1, b[3*K*N+N+j], vo)
			vo = math.FMA(g2, b[3*K*N+2*N+j], vo)
			vo = math.FMA(g3, b[3*K*N+3*N+j], vo)
			cO[i*N+j] = vo
		}
	}
}

// checkPanels panics early (with a clearer message than the raw conversion)
// when the operand panels cannot cover kTiles tiles.
func checkPanels(aPanel, bPanel []float64, kTiles int) {
	if kTiles < 0 {
		panic("mmu: negative kTiles")
	}
	if len(aPanel) < kTiles*M*K || len(bPanel) < kTiles*K*N {
		panic("mmu: operand panels shorter than kTiles tiles")
	}
}

// DMMAPanel executes a full k-sweep of FP64 m8n8k4 MMAs on a packed panel:
// c(8×8) += Σ_{kt<kTiles} a_kt(8×4)·b_kt(4×8), where aPanel holds kTiles
// consecutive row-major 8×4 tiles and bPanel kTiles consecutive row-major
// 4×8 tiles. The accumulator stays resident in a fixed-size local across the
// whole sweep — the register-file residency real tensor-core pipelines rely
// on — and the sweep costs one batched metrics update instead of kTiles.
//
// The per-element accumulation order is exactly the ascending-k chain of
// calling DMMATile(c, aPanel[32kt:], bPanel[32kt:]) for kt = 0..kTiles-1, so
// results are bit-identical to the tile loop (pinned by
// TestDMMAPanelMatchesTileLoop).
func DMMAPanel(c, aPanel, bPanel []float64, kTiles int) {
	checkPanels(aPanel, bPanel, kTiles)
	if kTiles == 0 {
		return
	}
	cc := (*[M * N]float64)(c)
	if kTiles == 1 {
		// Single-tile sweep: skip the local copy, run straight on c.
		dmmaTileInto(cc, (*[M * K]float64)(aPanel), (*[K * N]float64)(bPanel))
	} else {
		// Pairs of k-tiles per micro-kernel pass, an odd last tile on its
		// own; per element the FMA chain stays ascending-k.
		local := *cc
		kt := 0
		for ; kt+1 < kTiles; kt += 2 {
			dmmaTilePairInto(&local,
				(*[M * K]float64)(aPanel[kt*M*K:]),
				(*[M * K]float64)(aPanel[(kt+1)*M*K:]),
				(*[K * N]float64)(bPanel[kt*K*N:]),
				(*[K * N]float64)(bPanel[(kt+1)*K*N:]))
		}
		if kt < kTiles {
			dmmaTileInto(&local,
				(*[M * K]float64)(aPanel[kt*M*K:]),
				(*[K * N]float64)(bPanel[kt*K*N:]))
		}
		*cc = local
	}
	h := hintOf(unsafe.Pointer(cc))
	metDMMATiles.AddAt(h, uint64(kTiles))
	metDMMAPanels.AddAt(h, 1)
	// Operand staging traffic: one A and one B fragment per k-tile, plus the
	// panel-resident C fragment load + store.
	AddFragmentOps(2*kTiles + 2)
}

// DMMAPanelPair executes the software-pipelined double-buffered k-sweep of
// the cudaSample GEMM: even-indexed k-tiles accumulate into cEven, odd ones
// into cOdd, both accumulators resident across the sweep. Summing
// cEven+cOdd afterwards reproduces the two-accumulator rounding behaviour
// Table 6 depends on; each accumulator's chain is the ascending order of the
// alternating DMMATile loop (pinned by TestDMMAPanelPairMatchesTileLoop).
func DMMAPanelPair(cEven, cOdd, aPanel, bPanel []float64, kTiles int) {
	checkPanels(aPanel, bPanel, kTiles)
	if kTiles == 0 {
		return
	}
	ce := (*[M * N]float64)(cEven)
	co := (*[M * N]float64)(cOdd)
	localE, localO := *ce, *co
	kt := 0
	for ; kt+3 < kTiles; kt += 4 {
		dmmaTileQuadInto(&localE, &localO,
			(*[4 * M * K]float64)(aPanel[kt*M*K:]),
			(*[4 * K * N]float64)(bPanel[kt*K*N:]))
	}
	// Remainder tiles keep the even/odd assignment and ascending-k order of
	// the alternating tile loop: kt→E, kt+1→O, kt+2→E.
	switch kTiles - kt {
	case 1:
		dmmaTileInto(&localE,
			(*[M * K]float64)(aPanel[kt*M*K:]),
			(*[K * N]float64)(bPanel[kt*K*N:]))
	case 2:
		dmmaTileInto(&localE,
			(*[M * K]float64)(aPanel[kt*M*K:]),
			(*[K * N]float64)(bPanel[kt*K*N:]))
		dmmaTileInto(&localO,
			(*[M * K]float64)(aPanel[(kt+1)*M*K:]),
			(*[K * N]float64)(bPanel[(kt+1)*K*N:]))
	case 3:
		dmmaTilePairInto(&localE,
			(*[M * K]float64)(aPanel[kt*M*K:]),
			(*[M * K]float64)(aPanel[(kt+2)*M*K:]),
			(*[K * N]float64)(bPanel[kt*K*N:]),
			(*[K * N]float64)(bPanel[(kt+2)*K*N:]))
		dmmaTileInto(&localO,
			(*[M * K]float64)(aPanel[(kt+1)*M*K:]),
			(*[K * N]float64)(bPanel[(kt+1)*K*N:]))
	}
	*ce, *co = localE, localO
	h := hintOf(unsafe.Pointer(ce))
	metDMMATiles.AddAt(h, uint64(kTiles))
	metDMMAPanels.AddAt(h, 1)
	AddFragmentOps(2*kTiles + 4) // A+B per tile, two C fragments in and out
}

// DMMABatch executes n independent FP64 m8n8k4 MMAs from packed panels:
// c_i(8×8) += a_i(8×4)·b_i(4×8) for i = 0..n-1, with cPanel holding n
// consecutive 8×8 tiles. Products are independent (nothing is fused across
// i), so each result is bit-identical to DMMATile on the same operands; the
// batch costs one metrics update and runs on bounds-check-free array
// pointers. SpGEMM uses it for its paired-product queue.
func DMMABatch(cPanel, aPanel, bPanel []float64, n int) {
	checkPanels(aPanel, bPanel, n)
	if n == 0 {
		return
	}
	if len(cPanel) < n*M*N {
		panic("mmu: DMMABatch accumulator panel shorter than n tiles")
	}
	for i := 0; i < n; i++ {
		dmmaTileInto(
			(*[M * N]float64)(cPanel[i*M*N:]),
			(*[M * K]float64)(aPanel[i*M*K:]),
			(*[K * N]float64)(bPanel[i*K*N:]))
	}
	h := hintOf(unsafe.Pointer(&cPanel[0]))
	metDMMATiles.AddAt(h, uint64(n))
	metDMMAPanels.AddAt(h, 1)
	AddFragmentOps(4 * n) // A, B, C-in, C-out per product
}

// PackA packs the leading 8 rows of a row-major operand into kTiles
// consecutive 8×4 MMA A tiles: tile t covers source columns 4t..4t+3. src
// must have at least M rows of the given stride and 4·kTiles columns. This is
// the panel-layout shim for operands that are not tensor.Matrix values
// (stencil line gathers, the 8×8 scan/reduction stages). The pack itself is
// tensor.PackARows, the single stride-aware bulk helper shared with
// Matrix.PackAPanel and the packed-panel cache.
func PackA(dst, src []float64, stride, kTiles int) {
	if stride < kTiles*K {
		panic("mmu: PackA stride shorter than packed columns")
	}
	if len(dst) < kTiles*M*K {
		panic("mmu: PackA destination too small")
	}
	if len(src) < (M-1)*stride+kTiles*K {
		panic("mmu: PackA source too small")
	}
	tensor.PackARows(dst, src, stride, kTiles)
}

// BMMAPanel executes a run of single-bit broadcast-B m8n8k128 AND+POPC MMAs
// — the BerryBees pull-sweep inner loop — directly on packed uint64 words.
// For each stored block i, the 128-bit frontier segment selected by
// colSegs[i] (words frontier[2·seg], frontier[2·seg+1], zero beyond the end)
// forms every column of the B operand; blocks whose segment is all zero are
// skipped, exactly like the tile-at-a-time callers did. For executed blocks
// the consumed column-0 popcounts accumulate into rowHits:
//
//	rowHits[r] += Σ_w popcount(frags[i][r][w] AND seg[w])
//
// which is bit-for-bit what BMMAAndPopc produces in column 0 of its 8×8
// output under a broadcast B (pinned by TestBMMAPanelMatchesAndPopc). The
// whole run costs one metrics update; the return value is the number of MMAs
// executed (the skip count is len(frags) minus the return).
func BMMAPanel(rowHits *[BitM]int32, frags []BitFragA, colSegs []int32, frontier []uint64) int {
	if len(colSegs) < len(frags) {
		panic("mmu: BMMAPanel colSegs shorter than frags")
	}
	executed := 0
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
		executed++
		a := &frags[i]
		for r := 0; r < BitM; r++ {
			rowHits[r] += int32(bits.OnesCount64(a[r][0]&seg0) +
				bits.OnesCount64(a[r][1]&seg1))
		}
	}
	if executed > 0 {
		metBMMAOps.AddAt(hintOf(unsafe.Pointer(rowHits)), uint64(executed))
	}
	return executed
}
