package sparse

import "repro/internal/prestage"

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

// DASPBlock packs 8 lanes of work. For short/medium blocks each lane is one
// matrix row; for long blocks all 8 lanes are chunks of the same row and the
// diagonal results are summed at the end. Its 8×4 segments live in the
// layout's slabs (DASP.SegOff).
type DASPBlock struct {
	Category RowCategory
	// RowOf maps lane → original matrix row (-1 for an unused lane).
	RowOf [DASPRowsPerBlock]int32
}

// segFloats is the element count of one packed 8×4 tile — and, because the
// A tile is M×K and the B tile K×N with M = N = 8, also of one 4×8 tile, so
// SegOff scales both the APanels and BCols slabs.
const segFloats = DASPRowsPerBlock * DASPSegWidth

// DASP is the complete packed layout for one sparse matrix: its blocks, and
// their segments stored as the operand slabs of the MMAs that execute them.
type DASP struct {
	Rows, Cols int
	NNZ        int
	Blocks     []DASPBlock
	// PaddedSlots counts total lane-slot payload positions including padding
	// (8·4·segments·blocks); NNZ/PaddedSlots is the MMA input utilization.
	PaddedSlots int

	// SegOff[bi] is the cumulative segment count of blocks before bi
	// (length len(Blocks)+1): block bi's segments are the tiles s with
	// SegOff[bi] ≤ s < SegOff[bi+1], at element offset 32·s in both slabs.
	SegOff []int32
	// APanels is the static A operand: every segment as a row-major 8×4 MMA
	// tile, lane l's k-th nonzero of segment s at 32·s + l·4 + k.
	APanels []float64
	// BCols is the B-side gather index slab in packed B-tile layout: the
	// column of that nonzero sits at 32·s + k·8 + l, so the apply-time
	// gather is the flat loop bT[i] = x[BCols[i]]. Padding slots hold
	// value 0 and column 0 (a harmless gather).
	BCols []int32
}

// ToDASP builds the DASP layout from a CSR matrix, writing each lane's
// nonzeros straight to their slab positions. The slabs are sized from the
// row degrees (DASPPaddedSlots) and counted once (prestage.CountSlab).
func ToDASP(m *CSR) *DASP {
	slots := DASPPaddedSlots(m)
	d := &DASP{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), PaddedSlots: slots,
		APanels: make([]float64, slots), BCols: make([]int32, slots)}

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
	groups := func(n int) int { return (n + DASPRowsPerBlock - 1) / DASPRowsPerBlock }
	nBlocks := groups(len(short)) + groups(len(medium)) + len(long)
	d.Blocks = make([]DASPBlock, 0, nBlocks)
	d.SegOff = make([]int32, 1, nBlocks+1)
	// next is the first segment of the block being packed.
	next := func() int { return int(d.SegOff[len(d.Blocks)]) }
	push := func(blk DASPBlock, segs int) {
		d.SegOff = append(d.SegOff, int32(next()+segs))
		d.Blocks = append(d.Blocks, blk)
	}

	for _, g := range []struct {
		rows []int32
		cat  RowCategory
	}{{short, ShortRow}, {medium, MediumRow}} {
		for start := 0; start < len(g.rows); start += DASPRowsPerBlock {
			blk := DASPBlock{Category: g.cat}
			for l := range blk.RowOf {
				blk.RowOf[l] = -1
			}
			seg, segs := next(), 0
			for l, r := range g.rows[start:min(start+DASPRowsPerBlock, len(g.rows))] {
				blk.RowOf[l] = r
				n := m.RowNNZ(int(r))
				segs = max(segs, daspRowSegs(n))
				d.packLane(m, seg, l, m.RowPtr[r], n)
			}
			push(blk, segs)
		}
	}

	// Long rows: all 8 lanes carry disjoint chunks of one row.
	for _, r := range long {
		lo, n := m.RowPtr[r], m.RowNNZ(int(r))
		chunk := (n + DASPRowsPerBlock - 1) / DASPRowsPerBlock
		blk := DASPBlock{Category: LongRow}
		seg := next()
		for l := range blk.RowOf {
			blk.RowOf[l] = r
			if end := min(chunk, n-l*chunk); end > 0 {
				d.packLane(m, seg, l, lo+l*chunk, end)
			}
		}
		push(blk, daspRowSegs(chunk))
	}

	prestage.CountSlab(len(d.APanels)*8 + len(d.BCols)*4)
	return d
}

// packLane writes the n CSR nonzeros at offset lo into lane l of the
// segments from tile seg on: the k-th lands in segment seg + k/4 at A
// position l·4 + k%4 and B position (k%4)·8 + l. Full segments move 4-wide:
// the row's nonzeros are contiguous in the CSR arrays and land in
// consecutive A slots, so the slice→array conversion compiles to register
// moves (the PackARows idiom) instead of a per-element div/mod loop.
func (d *DASP) packLane(m *CSR, seg, l, lo, n int) {
	full := n / DASPSegWidth
	for s := 0; s < full; s++ {
		at := (seg + s) * segFloats
		*(*[DASPSegWidth]float64)(d.APanels[at+l*DASPSegWidth:]) = [DASPSegWidth]float64(m.Vals[lo+s*DASPSegWidth:])
		c := (*[DASPSegWidth]int32)(m.ColIdx[lo+s*DASPSegWidth:])
		b := (*[segFloats]int32)(d.BCols[at:])
		b[l] = c[0]
		b[DASPRowsPerBlock+l] = c[1]
		b[2*DASPRowsPerBlock+l] = c[2]
		b[3*DASPRowsPerBlock+l] = c[3]
	}
	for k := full * DASPSegWidth; k < n; k++ {
		at, kk := (seg+k/DASPSegWidth)*segFloats, k%DASPSegWidth
		d.APanels[at+l*DASPSegWidth+kk] = m.Vals[lo+k]
		d.BCols[at+kk*DASPRowsPerBlock+l] = m.ColIdx[lo+k]
	}
}

// daspRowSegs is the number of 8×4 segments a lane of n nonzeros fills.
func daspRowSegs(n int) int { return (n + DASPSegWidth - 1) / DASPSegWidth }

// DASPPaddedSlots returns ToDASP(m).PaddedSlots from m's row degrees alone,
// without building the layout: short and medium rows fill 8-lane blocks in
// row order, each as deep as its longest lane, and a long row takes one
// block whose 8 lanes each hold a chunk of ⌈n/8⌉ nonzeros.
func DASPPaddedSlots(m *CSR) int {
	var open [LongRow]struct{ lanes, segs int } // the short and medium blocks being filled
	segs := 0
	for i := 0; i < m.Rows; i++ {
		n := m.RowNNZ(i)
		c := Categorize(n)
		if c == LongRow {
			segs += daspRowSegs((n + DASPRowsPerBlock - 1) / DASPRowsPerBlock)
			continue
		}
		b := &open[c]
		b.segs = max(b.segs, daspRowSegs(n))
		if b.lanes++; b.lanes == DASPRowsPerBlock {
			segs += b.segs
			b.lanes, b.segs = 0, 0
		}
	}
	for _, b := range open {
		segs += b.segs
	}
	return segs * segFloats
}

// Prestage does nothing: ToDASP emits the operand slabs. It stays for the
// benchmark's replay, which still calls it.
func (*DASP) Prestage() {}

// DASPInputUtilization returns the fraction of MMA A-operand slots carrying
// real nonzeros (Observation 2's input-density measure for SpMV) for a
// layout of nnz nonzeros in paddedSlots slots (DASPPaddedSlots).
func DASPInputUtilization(nnz, paddedSlots int) float64 {
	if paddedSlots == 0 {
		return 0
	}
	return float64(nnz) / float64(paddedSlots)
}
