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

// Next advances the generator by one Step and returns the raw state in
// [1, modulus-1].
func (g *Generator) Next() int64 {
	g.state = Step(g.state)
	return g.state
}

// Step returns the raw state that follows x: x·16807 mod 2^31-1. The
// product is below 2^46, so it splits as hi·2^31 + lo, and because
// 2^31 ≡ 1 (mod 2^31-1) the residue is hi + lo after at most one
// subtraction of the modulus (Park–Miller's Mersenne reduction), without a
// division. With State and SetState it lets a caller step a copy of a
// generator's state.
func Step(x int64) int64 {
	x *= multiplier
	x = (x & modulus) + (x >> 31)
	if x >= modulus {
		x -= modulus
	}
	return x
}

// Step2 returns Step(Step(x)) in one multiply, x·16807² mod 2^31-1, so a
// caller choosing between the next two states computes both at once. The
// product is below 2^60 and its Mersenne fold below twice the modulus.
func Step2(x int64) int64 {
	x *= multiplier * multiplier
	x = (x & modulus) + (x >> 31)
	if x >= modulus {
		x -= modulus
	}
	return x
}

// State returns the generator's raw state: the value its last Next
// returned, or the folded seed before the first.
func (g *Generator) State() int64 { return g.state }

// SetState moves the generator to raw state x, a value State or Step
// returned.
func (g *Generator) SetState(x int64) { g.state = x }

// Threshold returns the least raw state t whose Uniform value,
// float64(t)/float64(2^31-1), is at least c, searching t in [1, 2^31-1].
// The quotient is correctly rounded, so it is monotone in the state, and
// for a state x a Next returned, Uniform() < c holds exactly when x < t:
// a draw is tested against c by one integer compare, which a caller can
// turn into a bit without a branch. Threshold is 1 for a c at or below
// Uniform's smallest value and 2^31-1, above every state, for a c above
// its largest. c must not be NaN.
func Threshold(c float64) int64 {
	lo, hi := int64(1), int64(modulus)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/float64(modulus) >= c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// AtLeast returns 1 if x ≥ t and 0 otherwise, without a branch: t−1−x is
// negative exactly when x ≥ t, and states and thresholds are far below
// 2^62, so the difference cannot overflow.
func AtLeast(x, t int64) int64 { return int64(uint64(t-1-x) >> 63) }

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
