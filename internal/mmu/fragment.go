// Package mmu implements the functional semantics of matrix multiply-
// accumulate (MMA) instructions as exposed by NVIDIA FP64 tensor cores, the
// representative matrix multiplication unit (MMU) the paper characterizes.
//
// Two instructions are modeled:
//
//   - DMMA: mma.m8n8k4 on FP64 — C(8×8) += A(8×4) · B(4×8), executed
//     cooperatively by one 32-thread warp with the PTX-documented fragment
//     ownership, and with a fixed per-element accumulation order (a chain of
//     fused multiply-adds over k = 0..3). This fixed order is what makes the
//     paper's TC and CC variants bit-identical (Table 6): the CC variant
//     replays the exact same FMA chain on the vector unit.
//
//   - BMMA: mma.m8n8k128 on single-bit operands — C(8×8, int32) +=
//     popcount(A(8×128) AND B(128×8)), the instruction BerryBees BFS uses.
//
// The package is purely functional: it computes results. Cost accounting
// (cycles, bytes, power) is the job of package sim.
package mmu

// Shapes of the FP64 DMMA instruction.
const (
	M = 8 // rows of A and C
	N = 8 // cols of B and C
	K = 4 // cols of A, rows of B

	WarpSize = 32
)

// AElement returns the (row, col) of the A-fragment element owned by warp
// lane t for the FP64 m8n8k4 MMA, per the PTX ISA fragment layout: each lane
// holds exactly one A element at row = t/4, col = t%4.
func AElement(t int) (row, col int) { return t / 4, t % 4 }

// BElement returns the (row, col) of the B-fragment element owned by lane t:
// row = t%4, col = t/4.
func BElement(t int) (row, col int) { return t % 4, t / 4 }

// CElements returns the two (row, col) pairs of the C-fragment elements owned
// by lane t: row = t/4, cols = 2*(t%4) and 2*(t%4)+1.
func CElements(t int) (row, col0, col1 int) {
	return t / 4, 2 * (t % 4), 2*(t%4) + 1
}

// FragA is the per-warp register state for an A operand: one FP64 per lane.
type FragA [WarpSize]float64

// FragB is the per-warp register state for a B operand: one FP64 per lane.
type FragB [WarpSize]float64

// FragC is the per-warp register state for a C accumulator: two FP64 per lane.
type FragC [2 * WarpSize]float64

// LoadA fills the fragment from an 8×4 row-major tile (stride 4).
func (f *FragA) Load(tile []float64) {
	addFragmentOps(0, 1)
	for t := 0; t < WarpSize; t++ {
		r, c := AElement(t)
		f[t] = tile[r*K+c]
	}
}

// Load fills the fragment from a 4×8 row-major tile (stride 8).
func (f *FragB) Load(tile []float64) {
	addFragmentOps(0, 1)
	for t := 0; t < WarpSize; t++ {
		r, c := BElement(t)
		f[t] = tile[r*N+c]
	}
}

// Load fills the fragment from an 8×8 row-major tile (stride 8).
func (f *FragC) Load(tile []float64) {
	addFragmentOps(0, 1)
	for t := 0; t < WarpSize; t++ {
		r, c0, c1 := CElements(t)
		f[2*t] = tile[r*N+c0]
		f[2*t+1] = tile[r*N+c1]
	}
}

// Store writes the fragment back to an 8×8 row-major tile (stride 8).
func (f *FragC) Store(tile []float64) {
	addFragmentOps(0, 1)
	for t := 0; t < WarpSize; t++ {
		r, c0, c1 := CElements(t)
		tile[r*N+c0] = f[2*t]
		tile[r*N+c1] = f[2*t+1]
	}
}

// Zero clears the accumulator fragment.
func (f *FragC) Zero() {
	for i := range f {
		f[i] = 0
	}
}
