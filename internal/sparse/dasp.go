package sparse

import (
	"sync"

	"repro/internal/prestage"
)

// DASP row-group layout (Lu & Liu, SC '23): rows are classified by nonzero
// count into long / medium / short categories and packed into 8-row blocks
// whose nonzeros are organized as 8×4 segments — the A operand of the FP64
// m8n8k4 MMA. The companion 4×8 B operand is built at SpMV time by gathering
// x values so that row i's partial dot product lands on the diagonal C(i,i).
const (
	DASPRowsPerBlock = 8 // lanes (matrix rows) per block
	DASPSegWidth     = 4 // nonzeros consumed per row per MMA
)

// RowCategory classifies a row by its nonzero count.
type RowCategory int

// DASP's three row categories.
const (
	ShortRow  RowCategory = iota // ≤ 4 nonzeros: one segment
	MediumRow                    // ≤ 64 nonzeros: a few segments
	LongRow                      // split across lanes and reduced
)

// Categorize returns the DASP category for a row with nnz nonzeros.
func Categorize(nnz int) RowCategory {
	switch {
	case nnz <= DASPSegWidth:
		return ShortRow
	case nnz <= 64:
		return MediumRow
	default:
		return LongRow
	}
}

// DASPSegment is one 8×4 slice of packed nonzeros: Vals[i][k] is the k-th
// payload of lane i, drawn from column Cols[i][k]. Padding entries have
// value 0 and column 0 (a harmless gather).
type DASPSegment struct {
	Vals [DASPRowsPerBlock][DASPSegWidth]float64
	Cols [DASPRowsPerBlock][DASPSegWidth]int32
}

// DASPBlock packs 8 lanes of work. For short/medium blocks each lane is one
// matrix row; for long blocks all 8 lanes are chunks of the same row and the
// diagonal results are summed at the end.
type DASPBlock struct {
	Category RowCategory
	// RowOf maps lane → original matrix row (-1 for an unused lane).
	RowOf    [DASPRowsPerBlock]int32
	Segments []DASPSegment
}

// segFloats is the element count of one packed 8×4 tile — and, because the
// A tile is M×K and the B tile K×N with M = N = 8, also of one 4×8 tile, so
// SegOff scales both the APanels and BCols slabs.
const segFloats = DASPRowsPerBlock * DASPSegWidth

// DASP is the complete packed layout for one sparse matrix.
type DASP struct {
	Rows, Cols int
	NNZ        int
	Blocks     []DASPBlock
	// PaddedSlots counts total lane-slot payload positions including padding
	// (8·4·segments·blocks); NNZ/PaddedSlots is the MMA input utilization.
	PaddedSlots int

	// SegOff[bi] is the cumulative segment count of blocks before bi
	// (length len(Blocks)+1): block bi's prestaged tiles live at element
	// offset 32·SegOff[bi] in both slabs below. Built by Prestage.
	SegOff []int32
	// APanels is the prestaged static A operand: every block's segments as
	// consecutive row-major 8×4 MMA tiles, exactly the bytes the per-call
	// staging packed from Segments[si].Vals — built once by Prestage (lazily,
	// on the first apply) so the SpMV hot loop only gathers the B
	// side, while layout-only consumers (padding ablations, utilization
	// metrics) never pay for the slabs.
	APanels []float64
	// BCols is the B-side gather index slab in packed B-tile layout:
	// BCols[32·(SegOff[bi]+si) + k·8 + l] = Segments[si].Cols[l][k], so the
	// apply-time gather is the flat 4-wide loop bT[i] = x[BCols[i]].
	BCols []int32

	slabOnce sync.Once
}

// ToDASP builds the DASP layout from a CSR matrix. The prestaged operand
// slabs (APanels/BCols) the SpMV hot loop consumes are materialized on the
// first Prestage call, not here.
func ToDASP(m *CSR) *DASP {
	d := &DASP{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}

	var short, medium, long []int32
	for i := 0; i < m.Rows; i++ {
		switch Categorize(m.RowNNZ(i)) {
		case ShortRow:
			short = append(short, int32(i))
		case MediumRow:
			medium = append(medium, int32(i))
		default:
			long = append(long, int32(i))
		}
	}

	packGroup := func(rows []int32, cat RowCategory) {
		for start := 0; start < len(rows); start += DASPRowsPerBlock {
			end := start + DASPRowsPerBlock
			if end > len(rows) {
				end = len(rows)
			}
			blk := DASPBlock{Category: cat}
			maxSegs := 0
			for l := range blk.RowOf {
				blk.RowOf[l] = -1
			}
			for l, r := range rows[start:end] {
				blk.RowOf[l] = r
				segs := (m.RowNNZ(int(r)) + DASPSegWidth - 1) / DASPSegWidth
				if segs > maxSegs {
					maxSegs = segs
				}
			}
			blk.Segments = make([]DASPSegment, maxSegs)
			for l, r := range rows[start:end] {
				lo := m.RowPtr[r]
				n := m.RowNNZ(int(r))
				// Full segments move 4-wide: the row's nonzeros are contiguous
				// in the CSR arrays and land in consecutive slots of lane l, so
				// the slice→array conversions compile to register moves (the
				// PackARows idiom) instead of a per-element div/mod loop.
				full := n / DASPSegWidth
				for s := 0; s < full; s++ {
					blk.Segments[s].Vals[l] = [DASPSegWidth]float64(m.Vals[lo+s*DASPSegWidth:])
					blk.Segments[s].Cols[l] = [DASPSegWidth]int32(m.ColIdx[lo+s*DASPSegWidth:])
				}
				for k := full * DASPSegWidth; k < n; k++ {
					blk.Segments[full].Vals[l][k%DASPSegWidth] = m.Vals[lo+k]
					blk.Segments[full].Cols[l][k%DASPSegWidth] = m.ColIdx[lo+k]
				}
			}
			d.Blocks = append(d.Blocks, blk)
			d.PaddedSlots += maxSegs * DASPRowsPerBlock * DASPSegWidth
		}
	}
	packGroup(short, ShortRow)
	packGroup(medium, MediumRow)

	// Long rows: all 8 lanes carry disjoint chunks of one row.
	for _, r := range long {
		lo, n := m.RowPtr[r], m.RowNNZ(int(r))
		chunk := (n + DASPRowsPerBlock - 1) / DASPRowsPerBlock
		segs := (chunk + DASPSegWidth - 1) / DASPSegWidth
		blk := DASPBlock{Category: LongRow, Segments: make([]DASPSegment, segs)}
		for l := 0; l < DASPRowsPerBlock; l++ {
			blk.RowOf[l] = r
			end := chunk
			if l*chunk+end > n {
				end = n - l*chunk
			}
			if end <= 0 {
				continue
			}
			base := lo + l*chunk
			full := end / DASPSegWidth
			for s := 0; s < full; s++ {
				blk.Segments[s].Vals[l] = [DASPSegWidth]float64(m.Vals[base+s*DASPSegWidth:])
				blk.Segments[s].Cols[l] = [DASPSegWidth]int32(m.ColIdx[base+s*DASPSegWidth:])
			}
			for k := full * DASPSegWidth; k < end; k++ {
				blk.Segments[k/DASPSegWidth].Vals[l][k%DASPSegWidth] = m.Vals[base+k]
				blk.Segments[k/DASPSegWidth].Cols[l][k%DASPSegWidth] = m.ColIdx[base+k]
			}
		}
		d.Blocks = append(d.Blocks, blk)
		d.PaddedSlots += segs * DASPRowsPerBlock * DASPSegWidth
	}

	return d
}

// Prestage materializes the prestaged operand slabs (SegOff, APanels,
// BCols), once; subsequent calls are free. ApplyDASP invokes it, so
// layout-only consumers never allocate the slabs.
// Safe for concurrent use.
func (d *DASP) Prestage() { d.slabOnce.Do(d.buildSlabs) }

// buildSlabs emits the prestaged operand slabs from the assembled blocks:
// the segment offset table, the prepacked A tiles, and the flat B-layout
// gather indices. The A bytes are exactly what the per-call staging loop
// packed (aT[l·4+k] = Vals[l][k] is the row-major flatten of the segment),
// so consuming the slab is bit-invisible; the spmv tests keep that staging
// as the oracle the prestaged apply must match bitwise.
func (d *DASP) buildSlabs() {
	d.SegOff = make([]int32, len(d.Blocks)+1)
	total := 0
	for bi := range d.Blocks {
		d.SegOff[bi] = int32(total)
		total += len(d.Blocks[bi].Segments)
	}
	d.SegOff[len(d.Blocks)] = int32(total)
	d.APanels = make([]float64, total*segFloats)
	d.BCols = make([]int32, total*segFloats)
	for bi := range d.Blocks {
		base := int(d.SegOff[bi]) * segFloats
		for si := range d.Blocks[bi].Segments {
			seg := &d.Blocks[bi].Segments[si]
			ap := d.APanels[base+si*segFloats : base+(si+1)*segFloats]
			bc := d.BCols[base+si*segFloats : base+(si+1)*segFloats]
			for l := 0; l < DASPRowsPerBlock; l++ {
				*(*[DASPSegWidth]float64)(ap[l*DASPSegWidth:]) = seg.Vals[l]
				c := &seg.Cols[l]
				// Transposed scatter into B-tile layout, 4-wide unrolled.
				bc[l] = c[0]
				bc[DASPRowsPerBlock+l] = c[1]
				bc[2*DASPRowsPerBlock+l] = c[2]
				bc[3*DASPRowsPerBlock+l] = c[3]
			}
		}
	}
	prestage.CountSlab(len(d.APanels)*8 + len(d.BCols)*4)
}

// InputUtilization returns the fraction of MMA A-operand slots carrying real
// nonzeros (Observation 2's input-density measure for SpMV).
func (d *DASP) InputUtilization() float64 {
	if d.PaddedSlots == 0 {
		return 0
	}
	return float64(d.NNZ) / float64(d.PaddedSlots)
}
