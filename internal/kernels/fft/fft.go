// Package fft implements the FFT workload following tcFFT (Li et al.,
// CLUSTER '21) adapted to FP64: each 1D transform of length L = n1·n2 runs
// as the four-step algorithm — an inner DFT against the n2-point Fourier
// matrix, a twiddle scaling, and an outer DFT against the n1-point Fourier
// matrix — with both complex matrix products executed on the FP64 m8n8k4
// MMA (four real products per complex product). The Fourier matrices are
// loaded once and reused across the whole batch — the Quadrant I pattern
// where A is resident and many result matrices are produced (Figure 2).
//
// Table 2's cases are 2D transforms (rows × cols) over a batch of 2048
// images; the paper notes the TC version loses to the cuFFT baseline
// because butterfly patterns map poorly onto MMA shapes (Section 6.1).
package fft

import (
	"fmt"
	"math"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Batch is the number of images per run (Table 2).
const Batch = 2048

// sampleImages is how many images are executed numerically per run.
const sampleImages = 2

// Workload is the FFT kernel. Every variant and the Reference transform
// their sampled images in place, so each synthesizes its own copy: there
// is no operand to share.
type Workload struct{}

// New returns the FFT workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "FFT" }

// Quadrant implements workload.Workload (Figure 2, Quadrant I).
func (*Workload) Quadrant() int { return 1 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Spectral methods" }

// Cases returns the five 2D sizes of Table 2.
func (*Workload) Cases() []workload.Case {
	mk := func(r, c int) workload.Case {
		return workload.Case{Name: fmt.Sprintf("%dx%d", r, c), Dims: []int{r, c}}
	}
	return []workload.Case{
		mk(256, 256), mk(256, 512), mk(256, 1024), mk(512, 256), mk(512, 512),
	}
}

// Variants implements workload.Workload. CC-E ≡ CC for Quadrant I.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 400 }

func dims(c workload.Case) (r, cc int, err error) {
	if len(c.Dims) != 2 {
		return 0, 0, fmt.Errorf("fft: case %q needs 2 dims", c.Name)
	}
	return c.Dims[0], c.Dims[1], nil
}

// inputs generates the sampled batch: interleaved re/im, image-major.
func inputs(r, c int) (re, im []float64) {
	n := r * c * sampleImages
	re = make([]float64, n)
	im = make([]float64, n)
	g := lcg.New(int64(r)*65537 + int64(c))
	g.Fill(re)
	g.Fill(im)
	return re, im
}

// split factors an FFT length into the (n1, n2) pair used by the four-step
// decomposition, preferring near-square factors with n1, n2 ≥ 16 so the MMA
// tiles stay full.
func split(l int) (n1, n2 int) {
	n1 = 16
	for n1*n1 < l {
		n1 *= 2
	}
	return n1, l / n1
}

// fourier returns the n-point DFT matrix (row j, col k → ω^{jk}).
func fourier(n int) (re, im []float64) {
	re = make([]float64, n*n)
	im = make([]float64, n*n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			re[j*n+k] = math.Cos(ang)
			im[j*n+k] = math.Sin(ang)
		}
	}
	return re, im
}

// matmulComplexMMA computes C = A·B for complex matrices in split storage
// using the MMA semantics: C_re = A_re·B_re + (−A_im)·B_im and
// C_im = A_re·B_im + A_im·B_re, each real product tiled over 8×4·4×8 MMAs
// with the k dimension swept in ascending order (first the B_re sweep, then
// the B_im sweep — a fixed, reproducible accumulation order).
func matmulComplexMMA(cRe, cIm, aRe, aIm, bRe, bIm []float64, m, k, n int) {
	negAIm := fftPanelScratch.Get(len(aIm))
	defer fftPanelScratch.Put(negAIm)
	for i, v := range aIm {
		negAIm[i] = -v
	}
	realMMA(cRe, aRe, bRe, m, k, n)
	realMMA(cRe, negAIm, bIm, m, k, n)
	realMMA(cIm, aRe, bIm, m, k, n)
	realMMA(cIm, aIm, bRe, m, k, n)
}

// fftPanelScratch pools the packed A/B operand panels and the C tile of
// realMMA across calls (four per complex product, many per transform).
var fftPanelScratch = par.NewSizedScratch()

// realMMA accumulates C += A·B with fused m8n8k4 MMA k-sweeps (zero-padded
// edges). The operands arrive as raw row-major slices; wrapping them in
// tensor.Matrix views gives the panel packers their fast interior paths.
// Both operands are staged whole, once per call: every B column-panel is
// packed up front and reused by every row block (the per-tile version
// re-packed each column panel m/8 times), and the A row-panel once per row
// block. The four-step intermediates mutate between successive realMMA
// calls, so one call is the widest reuse scope. The per-element FMA chain
// stays the ascending-k order of the old loop, so results are bit-identical
// to the tile loop.
func realMMA(c, a, b []float64, m, k, n int) {
	av := &tensor.Matrix{Rows: m, Cols: k, Data: a}
	bv := &tensor.Matrix{Rows: k, Cols: n, Data: b}
	kTiles := (k + mmu.K - 1) / mmu.K
	colTiles := (n + mmu.N - 1) / mmu.N
	bStride := kTiles * mmu.K * mmu.N
	buf := fftPanelScratch.Get(mmu.M*mmu.N + kTiles*mmu.M*mmu.K + colTiles*bStride)
	defer fftPanelScratch.Put(buf)
	cT := buf[0 : mmu.M*mmu.N]
	aPanel := buf[mmu.M*mmu.N : mmu.M*mmu.N+kTiles*mmu.M*mmu.K]
	bAll := buf[mmu.M*mmu.N+kTiles*mmu.M*mmu.K:]
	for tj := 0; tj < colTiles; tj++ {
		bv.PackBPanel(bAll[tj*bStride:(tj+1)*bStride], 0, tj*mmu.N, kTiles)
	}
	for i0 := 0; i0 < m; i0 += mmu.M {
		h := minInt(mmu.M, m-i0)
		av.PackAPanel(aPanel, i0, 0, kTiles)
		for j0, tj := 0, 0; j0 < n; j0, tj = j0+mmu.N, tj+1 {
			w := minInt(mmu.N, n-j0)
			bPanel := bAll[tj*bStride : (tj+1)*bStride]
			for i := 0; i < h; i++ {
				for j := 0; j < w; j++ {
					cT[i*mmu.N+j] = c[(i0+i)*n+j0+j]
				}
			}
			mmu.DMMAPanel(cT, aPanel, bPanel, kTiles)
			for i := 0; i < h; i++ {
				for j := 0; j < w; j++ {
					c[(i0+i)*n+j0+j] = cT[i*mmu.N+j]
				}
			}
		}
	}
}

// fft1DMMA transforms one length-l signal (strided views) with the
// four-step algorithm on the MMA path.
type fftPlanMMA struct {
	l, n1, n2              int
	f1Re, f1Im, f2Re, f2Im []float64
	twRe, twIm             []float64 // ω_L^{j1·k2} twiddles, n1×n2
}

func newPlanMMA(l int) *fftPlanMMA {
	n1, n2 := split(l)
	p := &fftPlanMMA{l: l, n1: n1, n2: n2}
	p.f2Re, p.f2Im = fourier(n2)
	p.f1Re, p.f1Im = fourier(n1)
	p.twRe = make([]float64, n1*n2)
	p.twIm = make([]float64, n1*n2)
	for j1 := 0; j1 < n1; j1++ {
		for k2 := 0; k2 < n2; k2++ {
			ang := -2 * math.Pi * float64(j1*k2) / float64(l)
			p.twRe[j1*n2+k2] = math.Cos(ang)
			p.twIm[j1*n2+k2] = math.Sin(ang)
		}
	}
	return p
}

// transform runs the plan in place on a gathered dense signal.
func (p *fftPlanMMA) transform(re, im []float64) {
	n1, n2 := p.n1, p.n2
	// Step 0: gather x into the n1×n2 matrix X[j1][j2] = x[j1 + n1·j2].
	xRe := make([]float64, n1*n2)
	xIm := make([]float64, n1*n2)
	for j1 := 0; j1 < n1; j1++ {
		for j2 := 0; j2 < n2; j2++ {
			xRe[j1*n2+j2] = re[j1+n1*j2]
			xIm[j1*n2+j2] = im[j1+n1*j2]
		}
	}
	// Step 1: inner DFTs — Y = X·F_{n2}.
	yRe := make([]float64, n1*n2)
	yIm := make([]float64, n1*n2)
	matmulComplexMMA(yRe, yIm, xRe, xIm, p.f2Re, p.f2Im, n1, n2, n2)
	// Step 2: twiddle.
	for i := range yRe {
		r := yRe[i]*p.twRe[i] - yIm[i]*p.twIm[i]
		im2 := yRe[i]*p.twIm[i] + yIm[i]*p.twRe[i]
		yRe[i], yIm[i] = r, im2
	}
	// Step 3: outer DFTs — Z = F_{n1}ᵀ·Y; F is symmetric, so F₁·Y.
	zRe := make([]float64, n1*n2)
	zIm := make([]float64, n1*n2)
	matmulComplexMMA(zRe, zIm, p.f1Re, p.f1Im, yRe, yIm, n1, n1, n2)
	// Z row-major is exactly the k2 + n2·k1 output ordering.
	copy(re, zRe)
	copy(im, zIm)
}

// transform2DMMA applies row FFTs then column FFTs to one r×c image.
func transform2DMMA(re, im []float64, r, c int) {
	rowPlan := newPlanMMA(c)
	colPlan := newPlanMMA(r)
	for i := 0; i < r; i++ {
		rowPlan.transform(re[i*c:(i+1)*c], im[i*c:(i+1)*c])
	}
	colRe := make([]float64, r)
	colIm := make([]float64, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			colRe[i], colIm[i] = re[i*c+j], im[i*c+j]
		}
		colPlan.transform(colRe, colIm)
		for i := 0; i < r; i++ {
			re[i*c+j], im[i*c+j] = colRe[i], colIm[i]
		}
	}
}

// radix2 is the cuFFT-class baseline: iterative radix-2 Cooley–Tukey with
// bit-reversal — a completely different rounding order than the DFT-matrix
// path.
func radix2(re, im []float64) {
	n := len(re)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for i := 0; i < n; i += length {
			curRe, curIm := 1.0, 0.0
			for j := 0; j < length/2; j++ {
				uRe, uIm := re[i+j], im[i+j]
				vRe := re[i+j+length/2]*curRe - im[i+j+length/2]*curIm
				vIm := re[i+j+length/2]*curIm + im[i+j+length/2]*curRe
				re[i+j], im[i+j] = uRe+vRe, uIm+vIm
				re[i+j+length/2], im[i+j+length/2] = uRe-vRe, uIm-vIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
}

func transform2DRadix2(re, im []float64, r, c int) {
	for i := 0; i < r; i++ {
		radix2(re[i*c:(i+1)*c], im[i*c:(i+1)*c])
	}
	colRe := make([]float64, r)
	colIm := make([]float64, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			colRe[i], colIm[i] = re[i*c+j], im[i*c+j]
		}
		radix2(colRe, colIm)
		for i := 0; i < r; i++ {
			re[i*c+j], im[i*c+j] = colRe[i], colIm[i]
		}
	}
}

// Profile implements workload.Workload: the closed-form profile, with no
// transform executed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	r, cc, err := dims(c)
	if err != nil {
		return nil, err
	}
	pts := float64(r) * float64(cc) * Batch
	res := &workload.Result{
		// Essential FLOPs: 5·N·log₂N per pass, both passes.
		Work:       pts * 5 * (log2f(r) + log2f(cc)),
		MetricName: "GFLOPS",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(r, cc)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.CC, workload.CCE:
		res.Profile = ccProfile(r, cc)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.Baseline:
		res.Profile = baselineProfile(r, cc)
	default:
		return nil, fmt.Errorf("fft: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the sampled images
// transformed by the variant's algorithm.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	r, cc, _ := dims(c)
	re, im := inputs(r, cc)
	n := r * cc
	for img := 0; img < sampleImages; img++ {
		switch v {
		case workload.TC, workload.CC, workload.CCE:
			transform2DMMA(re[img*n:(img+1)*n], im[img*n:(img+1)*n], r, cc)
		case workload.Baseline:
			transform2DRadix2(re[img*n:(img+1)*n], im[img*n:(img+1)*n], r, cc)
		}
	}
	out := make([]float64, 0, 2*len(re))
	out = append(out, re...)
	out = append(out, im...)
	res.Output = out
	return res, nil
}

// Reference implements workload.Workload: a direct O(N²) DFT per 1D pass
// with separate multiplies and adds — the unambiguous ground truth.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	r, cc, err := dims(c)
	if err != nil {
		return nil, err
	}
	re, im := inputs(r, cc)
	n := r * cc
	for img := 0; img < sampleImages; img++ {
		direct2D(re[img*n:(img+1)*n], im[img*n:(img+1)*n], r, cc)
	}
	out := make([]float64, 0, 2*len(re))
	out = append(out, re...)
	out = append(out, im...)
	return out, nil
}

// twiddles holds cos and sin of the angle -2π·p/n for every product p = j·k
// a length-n direct DFT meets, laid out by output index: entry k·n+j holds
// the term of input j in output k, so output k reads two contiguous rows.
// Each entry comes from the same expression the per-term loop evaluated, so
// reading the table is bit-identical to calling math.Cos and math.Sin per
// term. p = j·k is symmetric in j and k, so each pair is evaluated once
// and written to both of its entries: n(n+1)/2 calls of each per table.
type twiddles struct{ cos, sin []float64 }

func newTwiddles(n int) twiddles {
	tw := twiddles{cos: make([]float64, n*n), sin: make([]float64, n*n)}
	for k := 0; k < n; k++ {
		for j := k; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			tw.cos[k*n+j], tw.sin[k*n+j] = c, s
			tw.cos[j*n+k], tw.sin[j*n+k] = c, s
		}
	}
	return tw
}

// directDFT transforms re+i·im in place with the twiddles of its length.
func directDFT(re, im []float64, tw twiddles) {
	n := len(re)
	im = im[:n]
	oRe := make([]float64, n)
	oIm := make([]float64, n)
	for k := 0; k < n; k++ {
		cosK, sinK := tw.cos[k*n:(k+1)*n], tw.sin[k*n:(k+1)*n]
		var sr, si float64
		for j := 0; j < n; j++ {
			cr, ci := cosK[j], sinK[j]
			sr += re[j]*cr - im[j]*ci
			si += re[j]*ci + im[j]*cr
		}
		oRe[k], oIm[k] = sr, si
	}
	copy(re, oRe)
	copy(im, oIm)
}

func direct2D(re, im []float64, r, c int) {
	rowTw := newTwiddles(c)
	colTw := rowTw
	if r != c {
		colTw = newTwiddles(r)
	}
	for i := 0; i < r; i++ {
		directDFT(re[i*c:(i+1)*c], im[i*c:(i+1)*c], rowTw)
	}
	colRe := make([]float64, r)
	colIm := make([]float64, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			colRe[i], colIm[i] = re[i*c+j], im[i*c+j]
		}
		directDFT(colRe, colIm, colTw)
		for i := 0; i < r; i++ {
			re[i*c+j], im[i*c+j] = colRe[i], colIm[i]
		}
	}
}

// Profiles. MMA FLOPs per point per pass of length L = n1·n2: 8·(n1+n2)
// (two complex matmuls, four real products each); the baseline performs the
// essential 5·log₂L.

func mmaFLOPsPerPoint(l int) float64 {
	n1, n2 := split(l)
	return 8 * float64(n1+n2)
}

func tcProfile(r, c int) sim.Profile {
	pts := float64(r) * float64(c) * Batch
	return sim.Profile{
		TensorFLOPs: pts * (mmaFLOPsPerPoint(c) + mmaFLOPsPerPoint(r)),
		VectorFLOPs: pts * 12, // twiddle scaling, both passes
		// Two passes, read + write complex, plus the blocked-layout
		// transposes between the four-step stages (~30% extra traffic —
		// the butterfly-to-MMA mismatch the paper calls out).
		DRAMBytes:  pts * 64 * 1.3,
		ConstBytes: pts * 4, // Fourier-matrix broadcasts
		L1Bytes:    pts * 96,
		Launches:   2, // row and column passes
		Overlap:    0.88,
		Eff: sim.Efficiency{
			Tensor: 0.60,
			Vector: 0.6,
			DRAM:   sim.EffLibrary,
			L1:     0.9,
		},
	}
}

func ccProfile(r, c int) sim.Profile {
	p := tcProfile(r, c)
	p.VectorFLOPs += p.TensorFLOPs
	p.TensorFLOPs = 0
	p.ConstBytes = 0
	// The FFT's scalar replacement keeps the regular four-step structure
	// and vectorizes well — the smallest Quadrant I degradation (§6.2).
	p.Overlap = 0.60
	p.Eff = sim.Efficiency{Vector: 0.58, DRAM: sim.EffLibrary, L1: 0.9}
	return p
}

func baselineProfile(r, c int) sim.Profile {
	pts := float64(r) * float64(c) * Batch
	return sim.Profile{
		VectorFLOPs: pts * 5 * (log2f(r) + log2f(c)),
		DRAMBytes:   pts * 64, // cuFFT's fused passes: 2 × read+write complex
		L1Bytes:     pts * 64,
		Launches:    2,
		Overlap:     0.85,
		Eff: sim.Efficiency{
			Vector: sim.EffLibrary,
			DRAM:   0.90,
			L1:     0.85,
		},
	}
}

func log2f(n int) float64 {
	l := 0.0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
