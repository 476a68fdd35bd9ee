package stencil

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/par"
)

// Grid3D is a dense nx×ny×nz field stored z-major within rows (index
// (i·ny + j)·nz + k).
type Grid3D struct {
	NX, NY, NZ int
	Data       []float64
}

// NewGrid3D allocates a zeroed grid.
func NewGrid3D(nx, ny, nz int) *Grid3D {
	return &Grid3D{NX: nx, NY: ny, NZ: nz, Data: make([]float64, nx*ny*nz)}
}

// At returns the value at (i, j, k), zero outside the grid (the absorbing
// boundary the 2D path uses too).
func (g *Grid3D) At(i, j, k int) float64 {
	if i < 0 || i >= g.NX || j < 0 || j >= g.NY || k < 0 || k >= g.NZ {
		return 0
	}
	return g.Data[(i*g.NY+j)*g.NZ+k]
}

// Set assigns the value at (i, j, k); out-of-range writes are dropped.
func (g *Grid3D) Set(i, j, k int, v float64) {
	if i < 0 || i >= g.NX || j < 0 || j >= g.NY || k < 0 || k >= g.NZ {
		return
	}
	g.Data[(i*g.NY+j)*g.NZ+k] = v
}

// Sweep3DMMA applies one star3d1r (7-point) sweep on the MMA path: three
// band passes — along z, along y, along x — each computed as chains of
// m8n8k4 MMAs against a constant band operand, with the center weight
// carried only by the first pass. Mirrors the 2D LoRaStencil structure.
func Sweep3DMMA(u *Grid3D) (*Grid3D, error) {
	if u.NX < 1 || u.NY < 1 || u.NZ < 1 {
		return nil, fmt.Errorf("stencil: empty 3D grid %dx%dx%d", u.NX, u.NY, u.NZ)
	}
	out := NewGrid3D(u.NX, u.NY, u.NZ)
	bandC := bandMatrixB(wCenter) // 12×8, center weight included
	band0 := bandMatrixB(0)       // 12×8, neighbors only

	// pass applies a 1D band along the fastest-varying axis of an
	// (outer, lines, points) view: gather takes (line, point) to a value,
	// scatter accumulates the result. Each 8-line tile row scatters to a
	// disjoint set of grid elements within the pass, so the line-tile grid
	// runs through par.ForTiles (passes themselves stay sequential).
	pass := func(lines, points int, band []float64,
		gather func(line, pt int) float64, scatter func(line, pt int, v float64)) {
		lineTiles := (lines + 7) / 8
		par.ForTiles(lineTiles, func(tlo, thi int) {
			buf := sweepScratch.Get()
			defer sweepScratch.Put(buf)
			lineExt := buf[0:96] // 8 lines × (8 points + halo)
			acc := buf[96:160]
			aPanel := buf[160:256] // lineExt repacked as 3 MMA A tiles
			for lt := tlo; lt < thi; lt++ {
				l0 := lt * 8
				for p0 := 0; p0 < points; p0 += 8 {
					for r := 0; r < 8; r++ {
						for c := 0; c < 12; c++ {
							if l0+r < lines {
								lineExt[r*12+c] = gatherSafe(gather, l0+r, p0+c-1, points)
							} else {
								lineExt[r*12+c] = 0
							}
						}
					}
					for i := range acc {
						acc[i] = 0
					}
					// The 12×8 band operand is already a 3-tile B panel;
					// repack the gathered lines as the matching A panel and
					// run the band product as one fused k-sweep.
					mmu.PackA(aPanel, lineExt, 12, 3)
					mmu.DMMAPanel(acc, aPanel, band, 3)
					for r := 0; r < 8 && l0+r < lines; r++ {
						for c := 0; c < 8 && p0+c < points; c++ {
							scatter(l0+r, p0+c, acc[r*8+c])
						}
					}
				}
			}
		})
	}

	nx, ny, nz := u.NX, u.NY, u.NZ
	// Pass 1 (z axis, with the center weight): out = band_z(u).
	pass(nx*ny, nz, bandC,
		func(line, pt int) float64 { return u.Data[line*nz+pt] },
		func(line, pt int, v float64) { out.Data[line*nz+pt] = v })
	// Pass 2 (y axis, neighbors only): out += band_y(u).
	pass(nx*nz, ny, band0,
		func(line, pt int) float64 { i, k := line/nz, line%nz; return u.At(i, pt, k) },
		func(line, pt int, v float64) {
			i, k := line/nz, line%nz
			out.Data[(i*ny+pt)*nz+k] += v
		})
	// Pass 3 (x axis, neighbors only): out += band_x(u).
	pass(ny*nz, nx, band0,
		func(line, pt int) float64 { j, k := line/nz, line%nz; return u.At(pt, j, k) },
		func(line, pt int, v float64) {
			j, k := line/nz, line%nz
			out.Data[(pt*ny+j)*nz+k] += v
		})
	return out, nil
}

// gatherSafe pads the one-point halo with zeros.
func gatherSafe(gather func(line, pt int) float64, line, pt, points int) float64 {
	if pt < 0 || pt >= points {
		return 0
	}
	return gather(line, pt)
}

// Sweep3DDirect is the direct 7-point reference with separate multiply and
// add, x-planes executed through par.ForTiles.
func Sweep3DDirect(u *Grid3D) *Grid3D {
	out := NewGrid3D(u.NX, u.NY, u.NZ)
	par.ForTiles(u.NX, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < u.NY; j++ {
				for k := 0; k < u.NZ; k++ {
					v := wCenter * u.At(i, j, k)
					v += wSide * u.At(i-1, j, k)
					v += wSide * u.At(i+1, j, k)
					v += wSide * u.At(i, j-1, k)
					v += wSide * u.At(i, j+1, k)
					v += wSide * u.At(i, j, k-1)
					v += wSide * u.At(i, j, k+1)
					out.Set(i, j, k, v)
				}
			}
		}
	})
	return out
}
