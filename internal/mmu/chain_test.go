package mmu

import (
	"fmt"
	"math"
	"testing"
)

// Chain-order test vectors in the style of Khattak & Mikaitis, "Accurate
// Models of NVIDIA Tensor Cores": crafted operands whose result bits change
// if the per-element accumulation is anything other than the ascending-k
// chain acc = FMA(a_k, b_k, acc), starting from the C input. Reordering the
// products, summing them before adding C, dropping the fused rounding,
// flushing subnormals or swapping two k-tiles all change at least one
// expected word below.
//
// Every expected value is a hand-derived IEEE-754 bit pattern, written out
// as a literal. The derivations are in the comments; ties round to even
// (2^53+1 → 2^53 and 1e16+1 → 1e16, both with an even significand).

// Bit patterns used by the tables.
const (
	bitsZero    uint64 = 0x0000000000000000 // +0
	bitsNegZero uint64 = 0x8000000000000000 // −0
	bitsOne     uint64 = 0x3FF0000000000000 // 1
	bitsTwo     uint64 = 0x4000000000000000 // 2
	bitsThree   uint64 = 0x4008000000000000 // 3
	bits2p53    uint64 = 0x4340000000000000 // 2^53: exponent 1023+53 = 0x434
	bitsNeg2p53 uint64 = 0xC33FFFFFFFFFFFFF // −(2^53−1): exponent 0x433, all-ones fraction
	bits2m60    uint64 = 0x3C30000000000000 // 2^−60: exponent 1023−60 = 0x3C3
	bitsSubnorm uint64 = 0x0004000000000001 // 2^−1024 + 2^−1074: fraction bits 50 and 0
	bitsInf     uint64 = 0x7FF0000000000000 // +Inf
	// bitsNaN stands for any NaN. The payload and sign of a generated NaN
	// are not portable (x86 FMA hardware returns a negative quiet NaN), so
	// a NaN expectation only requires math.IsNaN.
	bitsNaN uint64 = 0x7FF8000000000000
)

// chainTiles is the deepest sweep the vectors cover: kTiles 1..5 reach the
// single-tile path, the pair kernel, a lone last tile, the quad kernel of
// DMMAPanelPair, and every one of its remainders.
const chainTiles = 5

// chainVector is one crafted operand set. Every row of A tile t holds
// a[t] and every column of B tile t holds b[t], so all 64 elements of an
// accumulator run the same chain; every accumulator starts at c0.
type chainVector struct {
	name string
	c0   float64
	a, b [chainTiles][K]float64
	// panel is DMMAPanel's result (and the DMMATile loop's) at kTiles 1..5.
	panel [chainTiles]uint64
	// even and odd are DMMAPanelPair's accumulators at kTiles 1..5: even
	// k-tiles chain into even, odd ones into odd.
	even, odd [chainTiles]uint64
	// batch[t] is DMMABatch's product t, c0 + a[t]·b[t]; it does not
	// depend on how many products the batch holds.
	batch [chainTiles]uint64
}

// filler is a k-slot that leaves every accumulator unchanged: the product
// (−0)·(+0) is −0, and v + (−0) == v bitwise for every v, including +0,
// −0, ±Inf and NaN.
var fillerA, fillerB = [K]float64{negZero, negZero, negZero, negZero}, [K]float64{}

var negZero = math.Copysign(0, -1)

// withinTile builds a vector whose whole chain sits in the four k-slots of
// tile 0; tiles 1..4 are fillers. Accumulators that see tile 0 end at
// want, the others keep c0.
func withinTile(name string, c0 float64, a, b [K]float64, want uint64) chainVector {
	v := chainVector{name: name, c0: c0}
	for t := range v.a {
		v.a[t], v.b[t] = fillerA, fillerB
	}
	v.a[0], v.b[0] = a, b
	c := math.Float64bits(c0)
	for t := range v.panel {
		v.panel[t], v.even[t], v.odd[t], v.batch[t] = want, want, c, c
	}
	v.batch[0] = want
	return v
}

// slot0 builds per-tile operands that carry s[t]·1 in k-slot 0 of tile t
// and fillers in slots 1..3, so the chain runs across k-tiles.
func slot0(s [chainTiles]float64) (a, b [chainTiles][K]float64) {
	for t := range s {
		a[t] = [K]float64{s[t], negZero, negZero, negZero}
		b[t] = [K]float64{1, 0, 0, 0}
	}
	return a, b
}

func chainVectors() []chainVector {
	inf := math.Inf(1)
	vs := []chainVector{
		// 0 + 1e16 = 1e16; +1 ties to 1e16; −1e16 → 0; +1 → 1. Reversed
		// it is 0 (1 − 1e16 ties to −1e16), and the pairwise sum
		// (1e16+1) + (−1e16+1) is 0 too.
		withinTile("cancellation 1e16,1,-1e16,1", 0,
			[K]float64{1e16, 1, -1e16, 1}, [K]float64{1, 1, 1, 1}, bitsOne),
		// C first: 1 + 2^−53 ties back to 1, four times. Summing the
		// products before adding C gives 1 + 2^−51 instead.
		withinTile("accumulator absorbs small products", 1,
			[K]float64{0x1p-53, 0x1p-53, 0x1p-53, 0x1p-53}, [K]float64{1, 1, 1, 1}, bitsOne),
		// (1+2^−30)² = 1 + 2^−29 + 2^−60 exactly inside the FMA, so adding
		// −(1+2^−29) leaves 2^−60. A rounded product gives 0.
		withinTile("fused product keeps the low bits", -(1 + 0x1p-29),
			[K]float64{1 + 0x1p-30, negZero, negZero, negZero},
			[K]float64{1 + 0x1p-30, 0, 0, 0}, bits2m60),
		// 1e308 + 1e308 overflows to +Inf and stays there; the order
		// 1e308, −1e308, 1e308 would give 1e308.
		withinTile("overflow is sticky", 0,
			[K]float64{1e308, 1e308, -1e308, negZero}, [K]float64{1, 1, 1, 0}, bitsInf),
		// −0 + (−0)·(+0) + (+0)·(−1) + ... stays −0: every product is −0.
		withinTile("negative zero survives", negZero,
			[K]float64{negZero, 0, negZero, negZero}, [K]float64{0, -1, 0, 0}, bitsNegZero),
		// −0 + 1 = 1; 1 + (−1) is an exact zero, which rounds to +0.
		withinTile("exact cancellation is +0", negZero,
			[K]float64{1, -1, negZero, negZero}, [K]float64{1, 1, 0, 0}, bitsZero),
		// 2^−1022 − 0.75·2^−1022 = 2^−1024 (subnormal), then + 2^−1074,
		// the smallest subnormal. Flushing to zero would give 0.
		withinTile("subnormal result", 0x1p-1022,
			[K]float64{-0.75, math.SmallestNonzeroFloat64, negZero, negZero},
			[K]float64{0x1p-1022, 1, 0, 0}, bitsSubnorm),
		withinTile("Inf propagates", 1,
			[K]float64{inf, 1, negZero, negZero}, [K]float64{1, 1, 0, 0}, bitsInf),
		withinTile("Inf - Inf is NaN", 0,
			[K]float64{inf, -inf, negZero, negZero}, [K]float64{1, 1, 0, 0}, bitsNaN),
		withinTile("0 * Inf is NaN", 1,
			[K]float64{0, negZero, negZero, negZero}, [K]float64{inf, 0, 0, 0}, bitsNaN),
		withinTile("NaN accumulator propagates", math.NaN(),
			[K]float64{1, 2, 3, 4}, [K]float64{1, 1, 1, 1}, bitsNaN),
	}

	// The chain across k-tiles: s = 2^53, 1, −2^53, 1, 1 in slot 0 of tiles
	// 0..4, every accumulator starting at 1.
	//   DMMAPanel: 1 + 2^53 ties to 2^53; +1 ties to 2^53; −2^53 → 0;
	//   +1 → 1; +1 → 2.
	//   DMMAPanelPair even (tiles 0, 2, 4): 2^53, 2^53, 0, 0, 1.
	//   DMMAPanelPair odd (tiles 1, 3): 1 (untouched), 2, 2, 3, 3.
	//   DMMABatch: 1 + s[t] = 2^53, 2, −(2^53−1) (exact), 2, 2.
	// Swapping tiles 0 and 1 gives 2^53 + 2 at kTiles 2; swapping the even
	// tiles 0 and 2 gives 1 − 2^53 + 2^53 = 1 at kTiles 3.
	cross := chainVector{
		name:  "k-tile order 2^53,1,-2^53,1,1",
		c0:    1,
		panel: [chainTiles]uint64{bits2p53, bits2p53, bitsZero, bitsOne, bitsTwo},
		even:  [chainTiles]uint64{bits2p53, bits2p53, bitsZero, bitsZero, bitsOne},
		odd:   [chainTiles]uint64{bitsOne, bitsTwo, bitsTwo, bitsThree, bitsThree},
		batch: [chainTiles]uint64{bits2p53, bitsTwo, bitsNeg2p53, bitsTwo, bitsTwo},
	}
	cross.a, cross.b = slot0([chainTiles]float64{0x1p53, 1, -0x1p53, 1, 1})
	return append(vs, cross)
}

// panels lays out the vector's first kTiles tiles as packed A (8×4 per
// tile) and B (4×8 per tile) panels.
func (v *chainVector) panels(kTiles int) (aPanel, bPanel []float64) {
	aPanel = make([]float64, kTiles*M*K)
	bPanel = make([]float64, kTiles*K*N)
	for t := 0; t < kTiles; t++ {
		for k := 0; k < K; k++ {
			for i := 0; i < M; i++ {
				aPanel[t*M*K+i*K+k] = v.a[t][k]
			}
			for j := 0; j < N; j++ {
				bPanel[t*K*N+k*N+j] = v.b[t][k]
			}
		}
	}
	return aPanel, bPanel
}

// filled returns n accumulator elements set to c0.
func filled(n int, c0 float64) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = c0
	}
	return c
}

// checkBits fails unless every element of got has the bits of want (any
// NaN when want is bitsNaN).
func checkBits(t *testing.T, what string, got []float64, want uint64) {
	t.Helper()
	for i, g := range got {
		if want == bitsNaN {
			if !math.IsNaN(g) {
				t.Fatalf("%s: element %d = %v (%#016x), want NaN", what, i, g, math.Float64bits(g))
			}
			continue
		}
		if b := math.Float64bits(g); b != want {
			t.Fatalf("%s: element %d = %v (%#016x), want %v (%#016x)",
				what, i, g, b, math.Float64frombits(want), want)
		}
	}
}

// TestMMAChainVectors runs every vector through DMMATile (as the ascending
// tile loop), DMMAPanel, DMMAPanelPair and DMMABatch at kTiles 1..5.
func TestMMAChainVectors(t *testing.T) {
	for _, v := range chainVectors() {
		t.Run(v.name, func(t *testing.T) {
			for kTiles := 1; kTiles <= chainTiles; kTiles++ {
				aPanel, bPanel := v.panels(kTiles)

				tile := filled(M*N, v.c0)
				for kt := 0; kt < kTiles; kt++ {
					DMMATile(tile, aPanel[kt*M*K:(kt+1)*M*K], bPanel[kt*K*N:(kt+1)*K*N])
				}
				checkBits(t, fmt.Sprintf("DMMATile loop kTiles=%d", kTiles), tile, v.panel[kTiles-1])

				panel := filled(M*N, v.c0)
				DMMAPanel(panel, aPanel, bPanel, kTiles)
				checkBits(t, fmt.Sprintf("DMMAPanel kTiles=%d", kTiles), panel, v.panel[kTiles-1])

				even, odd := filled(M*N, v.c0), filled(M*N, v.c0)
				DMMAPanelPair(even, odd, aPanel, bPanel, kTiles)
				checkBits(t, fmt.Sprintf("DMMAPanelPair even kTiles=%d", kTiles), even, v.even[kTiles-1])
				checkBits(t, fmt.Sprintf("DMMAPanelPair odd kTiles=%d", kTiles), odd, v.odd[kTiles-1])

				batch := filled(kTiles*M*N, v.c0)
				DMMABatch(batch, aPanel, bPanel, kTiles)
				for p := 0; p < kTiles; p++ {
					checkBits(t, fmt.Sprintf("DMMABatch n=%d product %d", kTiles, p),
						batch[p*M*N:(p+1)*M*N], v.batch[p])
				}
			}
		})
	}
}
