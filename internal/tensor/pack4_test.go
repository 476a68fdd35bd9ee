package tensor

import "testing"

// TestPack4Stride pins the strided 4-wide row move: rows of panelK floats
// copied between arbitrary strides, everything outside the written lanes
// untouched.
func TestPack4Stride(t *testing.T) {
	src := make([]float64, 64)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	dst := make([]float64, 64)
	for i := range dst {
		dst[i] = -1
	}
	const dstStride, srcStride, rows = 8, 5, 4
	Pack4Stride(dst[3:], dstStride, src[2:], srcStride, rows)
	written := map[int]bool{}
	for r := 0; r < rows; r++ {
		for k := 0; k < panelK; k++ {
			di := 3 + r*dstStride + k
			written[di] = true
			if want := src[2+r*srcStride+k]; dst[di] != want {
				t.Fatalf("dst[%d] = %v, want %v", di, dst[di], want)
			}
		}
	}
	for i, v := range dst {
		if !written[i] && v != -1 {
			t.Fatalf("dst[%d] = %v, expected untouched sentinel", i, v)
		}
	}
}
