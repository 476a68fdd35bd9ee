package lcg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedFolding(t *testing.T) {
	cases := []struct {
		seed int64
		name string
	}{
		{0, "zero"},
		{-1, "negative"},
		{modulus, "modulus"},
		{-modulus, "negative modulus"},
	}
	for _, c := range cases {
		g := New(c.seed)
		if g.state <= 0 || g.state >= modulus {
			t.Errorf("seed %s: state %d outside [1, m-1]", c.name, g.state)
		}
		v := g.Next()
		if v <= 0 || v >= modulus {
			t.Errorf("seed %s: Next %d outside [1, m-1]", c.name, v)
		}
	}
}

func TestKnownSequence(t *testing.T) {
	// Park–Miller with seed 1: after 10000 steps the state must be
	// 1043618065 (the classic validation value from their CACM paper).
	g := New(1)
	var v int64
	for i := 0; i < 10000; i++ {
		v = g.Next()
	}
	if v != 1043618065 {
		t.Fatalf("state after 10000 steps = %d, want 1043618065", v)
	}
}

// TestNextMatchesModulo pins the Mersenne reduction in Next to the
// textbook (state·16807) % modulus: long runs of consecutive states from a
// few seeds, and one step from the edge states 1 and modulus-1.
func TestNextMatchesModulo(t *testing.T) {
	draws := 50_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	oracle := func(s int64) int64 { return (s * multiplier) % modulus }
	for _, seed := range []int64{1, 42, 20260817} {
		g := New(seed)
		want := g.state
		for i := 0; i < draws; i++ {
			want = oracle(want)
			if got := g.Next(); got != want {
				t.Fatalf("seed %d, draw %d: Next = %d, want %d", seed, i, got, want)
			}
		}
	}
	for _, s := range []int64{1, modulus - 1} {
		g := &Generator{state: s}
		if got, want := g.Next(), oracle(s); got != want {
			t.Errorf("Next from state %d = %d, want %d", s, got, want)
		}
	}
}

// TestSkipMatchesNext pins Skip(k) to k calls of Next, including the
// draws after the jump.
func TestSkipMatchesNext(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260817} {
		for _, k := range []int{0, 1, 2, 1_000_007} {
			want := New(seed)
			for i := 0; i < k; i++ {
				want.Next()
			}
			got := New(seed)
			got.Skip(k)
			if got.state != want.state {
				t.Fatalf("seed %d: Skip(%d) state %d, %d calls of Next %d", seed, k, got.state, k, want.state)
			}
			for i := 0; i < 3; i++ {
				if a, b := got.Next(), want.Next(); a != b {
					t.Fatalf("seed %d, Skip(%d): draw %d after the jump = %d, want %d", seed, k, i, a, b)
				}
			}
		}
	}
}

func TestSymmetricRange(t *testing.T) {
	g := New(7)
	for i := 0; i < 100000; i++ {
		v := g.Symmetric()
		if v <= -2 || v >= 2 {
			t.Fatalf("Symmetric returned %v outside (-2,2)", v)
		}
	}
}

func TestSymmetricMoments(t *testing.T) {
	g := New(12345)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Symmetric()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	// Uniform(-2,2): mean 0, variance 16/12 ≈ 1.333.
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-16.0/12.0) > 0.02 {
		t.Errorf("variance = %v, want ≈1.333", variance)
	}
}

func TestUniformRange(t *testing.T) {
	g := New(3)
	for i := 0; i < 10000; i++ {
		v := g.Uniform()
		if v <= 0 || v >= 1 {
			t.Fatalf("Uniform returned %v outside (0,1)", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	g := New(99)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := g.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFill(t *testing.T) {
	g := New(11)
	buf := make([]float64, 64)
	g.Fill(buf)
	for i, v := range buf {
		if v == 0 {
			t.Errorf("Fill left index %d zero (probability ~0)", i)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := New(seed)
		p := g.Perm(64)
		seen := make([]bool, 64)
		for _, v := range p {
			if v < 0 || v >= 64 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 matched %d/100 draws", same)
	}
}

func BenchmarkSymmetric(b *testing.B) {
	g := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = g.Symmetric()
	}
	_ = sink
}
