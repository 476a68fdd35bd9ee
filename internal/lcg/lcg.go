// Package lcg implements the Lehmer linear congruential generator used by
// the LINPACK benchmark to initialize floating-point inputs. The paper
// (Section 8) generates pseudo-random FP64 values distributed within (-2, 2)
// with this method; reproducing the exact generator keeps the numerical
// accuracy experiments deterministic across runs and platforms.
package lcg

// Parameters of the classic Lehmer / Park–Miller minimal standard generator
// (multiplier 16807 modulo the Mersenne prime 2^31-1), the same family used
// by LINPACK's matgen.
const (
	multiplier = 16807
	modulus    = 2147483647 // 2^31 - 1
)

// Generator is a deterministic Lehmer linear congruential pseudo-random
// number generator. The zero value is not valid; use New.
type Generator struct {
	state int64
}

// New returns a Generator seeded with seed. Seeds are folded into the valid
// range [1, modulus-1]; a seed of 0 is mapped to 1 so the sequence never
// collapses to the fixed point at zero.
func New(seed int64) *Generator {
	s := seed % modulus
	if s < 0 {
		s += modulus
	}
	if s == 0 {
		s = 1
	}
	return &Generator{state: s}
}

// Next advances the generator and returns the raw state in [1, modulus-1].
// The product state·16807 is below 2^46, so it splits as hi·2^31 + lo, and
// because 2^31 ≡ 1 (mod 2^31-1) the residue is hi + lo after at most one
// subtraction of the modulus (Park–Miller's Mersenne reduction). The
// result is the same state as (state·16807) % modulus, without a division.
func (g *Generator) Next() int64 {
	x := g.state * multiplier
	x = (x & modulus) + (x >> 31)
	if x >= modulus {
		x -= modulus
	}
	g.state = x
	return x
}

// Skip advances the generator by k draws, to the state k calls to Next
// would leave, in O(log k) steps: that state is state·16807^k mod 2^31-1,
// and the power is taken by square-and-multiply. Every operand is below
// 2^31, so each product fits in an int64. k ≤ 0 leaves the state as is.
func (g *Generator) Skip(k int) {
	m, p := int64(1), int64(multiplier)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			m = m * p % modulus
		}
		p = p * p % modulus
	}
	g.state = g.state * m % modulus
}

// Uniform returns a float64 uniformly distributed in (0, 1).
func (g *Generator) Uniform() float64 {
	return float64(g.Next()) / float64(modulus)
}

// Symmetric returns a float64 uniformly distributed in (-2, 2), the input
// distribution the paper uses for all pseudo-random kernel inputs.
func (g *Generator) Symmetric() float64 {
	return 4*g.Uniform() - 2
}

// Intn returns a non-negative pseudo-random integer in [0, n). It panics if
// n <= 0.
func (g *Generator) Intn(n int) int {
	if n <= 0 {
		panic("lcg: Intn called with non-positive n")
	}
	return int(g.Next() % int64(n))
}

// Fill fills dst with values from Symmetric.
func (g *Generator) Fill(dst []float64) {
	for i := range dst {
		dst[i] = g.Symmetric()
	}
}

// FillUniform fills dst with values from Uniform.
func (g *Generator) FillUniform(dst []float64) {
	for i := range dst {
		dst[i] = g.Uniform()
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *Generator) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
