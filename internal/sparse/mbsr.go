package sparse

import (
	"slices"

	"repro/internal/par"
)

// BlockSize is the mBSR block edge: AmgT partitions sparse matrices into
// 4×4 dense blocks and pairs vertically adjacent blocks into the 8×4 A
// operand of the FP64 m8n8k4 MMA.
const BlockSize = 4

// MBSRBlock is one dense 4×4 block with its block-column coordinate.
type MBSRBlock struct {
	BlockCol int32
	Vals     [BlockSize * BlockSize]float64 // row-major
}

// MBSR is the modified block-sparse-row format of AmgT: block rows of dense
// 4×4 blocks, compressed like CSR at block granularity.
type MBSR struct {
	Rows, Cols           int // element dimensions
	BlockRows, BlockCols int
	RowPtr               []int // length BlockRows+1, indexes Blocks
	Blocks               []MBSRBlock
}

// Pooled arenas for the counted two-pass ToMBSR: a block-column stamp
// directory, the block-col → output-slot map, and the per-block-row
// distinct-column list.
var (
	mbsrStampScratch = par.NewTypedScratch[int32]()
	mbsrSlotScratch  = par.NewTypedScratch[int32]()
	mbsrColsScratch  = par.NewTypedScratch[int32]()
)

// ToMBSR converts a CSR matrix into mBSR with 4×4 blocks. Zero-padding is
// introduced for elements outside the matrix or absent from the pattern —
// the data-structure change Key Observation 1 describes.
//
// The build is a counted two-pass: pass 1 (countBlocks) counts distinct
// block columns per block row against a pooled stamp directory (stamp i+1
// for block row i), sizing RowPtr and one exact Blocks allocation; pass 2
// re-discovers each row's columns under a fresh stamp (-(i+1), so the
// passes never collide), sorts them, and scatters values straight into the
// assigned slots. The map-of-heap-blocks version this replaces allocated a
// map, a block, and repeated slice growth per block row — ~37k objects per
// Mycielskian build.
func ToMBSR(m *CSR) *MBSR {
	br := (m.Rows + BlockSize - 1) / BlockSize
	bc := (m.Cols + BlockSize - 1) / BlockSize
	out := &MBSR{
		Rows: m.Rows, Cols: m.Cols,
		BlockRows: br, BlockCols: bc,
		RowPtr: make([]int, br+1),
	}
	stamp := mbsrStampScratch.Get(bc)
	defer mbsrStampScratch.Put(stamp)
	total := countBlocks(m, stamp, out.RowPtr)
	// Pass 2: fill the exactly-sized block slab (fresh allocation, so block
	// values start zeroed).
	out.Blocks = make([]MBSRBlock, total)
	slot := mbsrSlotScratch.Get(bc)
	defer mbsrSlotScratch.Put(slot)
	cols := mbsrColsScratch.Get(bc)
	defer mbsrColsScratch.Put(cols)
	for i := 0; i < br; i++ {
		g := int32(-(i + 1))
		base := out.RowPtr[i]
		n := 0
		for di := 0; di < BlockSize; di++ {
			r := i*BlockSize + di
			if r >= m.Rows {
				break
			}
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				b := m.ColIdx[k] / BlockSize
				if stamp[b] != g {
					stamp[b] = g
					cols[n] = b
					n++
				}
			}
		}
		// Keep block columns sorted for deterministic iteration.
		seg := cols[:n]
		slices.Sort(seg)
		for idx, b := range seg {
			out.Blocks[base+idx].BlockCol = b
			slot[b] = int32(idx)
		}
		for di := 0; di < BlockSize; di++ {
			r := i*BlockSize + di
			if r >= m.Rows {
				break
			}
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				j := m.ColIdx[k]
				b := j / BlockSize
				out.Blocks[base+int(slot[b])].Vals[di*BlockSize+int(j%BlockSize)] = m.Vals[k]
			}
		}
	}
	return out
}

// countBlocks is ToMBSR's pass 1: it counts the distinct block columns of
// every block row against stamp (length BlockCols, cleared here, left
// stamped i+1 for block row i) and returns the total. A non-nil rowPtr
// receives the running counts in rowPtr[1:].
func countBlocks(m *CSR, stamp []int32, rowPtr []int) int {
	clear(stamp)
	total := 0
	br := (m.Rows + BlockSize - 1) / BlockSize
	for i := 0; i < br; i++ {
		g := int32(i + 1)
		for di := 0; di < BlockSize; di++ {
			r := i*BlockSize + di
			if r >= m.Rows {
				break
			}
			for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
				b := m.ColIdx[k] / BlockSize
				if stamp[b] != g {
					stamp[b] = g
					total++
				}
			}
		}
		if rowPtr != nil {
			rowPtr[i+1] = total
		}
	}
	return total
}

// BlockNNZ returns the number of stored 4×4 blocks.
func (m *MBSR) BlockNNZ() int { return len(m.Blocks) }

// FillRatio returns stored-nonzero density inside the stored blocks — the
// fraction of MMA input actually carrying payload (Observation 2's partial
// utilization measure for SpGEMM).
func (m *MBSR) FillRatio(nnz int) float64 { return fillRatio(nnz, len(m.Blocks)) }

func fillRatio(nnz, blocks int) float64 {
	if blocks == 0 {
		return 0
	}
	return float64(nnz) / float64(blocks*BlockSize*BlockSize)
}

// ToCSR expands the mBSR matrix back to CSR (explicit zeros dropped).
func (m *MBSR) ToCSR() *CSR {
	coo := NewCOO(m.Rows, m.Cols)
	for i := 0; i < m.BlockRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			b := &m.Blocks[p]
			for di := 0; di < BlockSize; di++ {
				for dj := 0; dj < BlockSize; dj++ {
					v := b.Vals[di*BlockSize+dj]
					if v == 0 {
						continue
					}
					r := i*BlockSize + di
					c := int(b.BlockCol)*BlockSize + dj
					if r < m.Rows && c < m.Cols {
						coo.Add(r, c, v)
					}
				}
			}
		}
	}
	return coo.ToCSR()
}
