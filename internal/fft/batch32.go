package fft

import (
	"fmt"
	"time"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
)

// BatchPlan2D32 is the complex64 twin of BatchPlan2D: identical pass
// structure (single-sweep batched rows, blocked gather/transform/scatter
// columns, band-pruned variants), but over CField32 batches with float32
// butterflies. The per-kernel field batch is the largest resident data
// of a forward/adjoint pass, so halving its element size halves the
// memory traffic of the hottest loops. The banded passes keep the same
// exactness property as the float64 plan: Plan32 also transforms an
// all-zero vector to all +0 bits (TestPlan32ZeroInZeroOut), so skipped
// rows/columns are exactly what a full pass would leave.
//
// A BatchPlan2D32 owns per-worker scratch and is NOT safe for concurrent
// use; create one per goroutine.
type BatchPlan2D32 struct {
	w, h    int
	rowPlan *Plan32 // length w
	colPlan *Plan32 // length h
	eng     *engine.Engine
	col     [][]complex64 // per-worker column gather scratch, colBlock·h

	opFields    []*grid.CField32
	opInverse   bool
	opBand      int
	opBlocks    int
	opLowBlocks int

	rowBody       func(lo, hi int)
	rowBandedBody func(lo, hi int)
	colBody       func(worker, i int)
	colColsBody   func(worker, i int)
}

// BatchScratchLen32 returns the complex64 scratch element count a
// float32 batch plan for h-tall fields needs on an engine with the given
// worker count (same shape as BatchScratchLen).
func BatchScratchLen32(h, workers int) int { return workers * colBlock * h }

// NewBatchPlan2D32 creates a batched float32 2-D plan for w×h fields
// executed on eng. Both dimensions must be powers of two.
func NewBatchPlan2D32(w, h int, eng *engine.Engine) *BatchPlan2D32 {
	return NewBatchPlan2D32FromPlans(CachedPlan32(w), CachedPlan32(h), eng, nil)
}

// NewBatchPlan2D32FromPlans builds a batched float32 2-D plan around
// existing shared 1-D plans. scratch must be nil (allocate internally)
// or at least BatchScratchLen32(h, eng.Workers()) elements of
// caller-owned memory, e.g. leased from an rt.Pool.
func NewBatchPlan2D32FromPlans(row, col *Plan32, eng *engine.Engine, scratch []complex64) *BatchPlan2D32 {
	w, h := row.N(), col.N()
	if !grid.IsPow2(w) || !grid.IsPow2(h) {
		panic(fmt.Sprintf("fft: grid %dx%d is not power-of-two", w, h))
	}
	if eng == nil {
		eng = engine.CPU()
	}
	if scratch == nil {
		scratch = make([]complex64, BatchScratchLen32(h, eng.Workers()))
	}
	if len(scratch) < BatchScratchLen32(h, eng.Workers()) {
		panic(fmt.Sprintf("fft: batch scratch %d below required %d", len(scratch), BatchScratchLen32(h, eng.Workers())))
	}
	p := &BatchPlan2D32{
		w:       w,
		h:       h,
		rowPlan: row,
		colPlan: col,
		eng:     eng,
		col:     make([][]complex64, eng.Workers()),
	}
	for i := range p.col {
		p.col[i] = scratch[i*colBlock*h : (i+1)*colBlock*h]
	}
	p.bindBodies()
	return p
}

// bindBodies creates the engine bodies once; each pass stages its
// operands in the op* fields and reuses the bound closure (see
// BatchPlan2D.bindBodies).
func (p *BatchPlan2D32) bindBodies() {
	p.rowBody = func(lo, hi int) {
		w, h := p.w, p.h
		fields, inverse := p.opFields, p.opInverse
		for i := lo; i < hi; i++ {
			data := fields[i/h].Data
			r := i % h
			row := data[r*w : (r+1)*w]
			if inverse {
				p.rowPlan.Inverse(row)
			} else {
				p.rowPlan.Forward(row)
			}
		}
	}
	p.rowBandedBody = func(lo, hi int) {
		w, h := p.w, p.h
		fields, band, inverse := p.opFields, p.opBand, p.opInverse
		rows := 2*band + 1
		for i := lo; i < hi; i++ {
			data := fields[i/rows].Data
			j := i % rows
			r := j
			if j > band {
				r = h - rows + j
			}
			row := data[r*w : (r+1)*w]
			if inverse {
				p.rowPlan.Inverse(row)
			} else {
				p.rowPlan.Forward(row)
			}
		}
	}
	p.colBody = func(worker, i int) {
		w, h := p.w, p.h
		inBand, blocks := p.opBand, p.opBlocks
		banded := inBand >= 0 && 2*inBand+1 < h
		data := p.opFields[i/blocks].Data
		x0 := (i % blocks) * colBlock
		x1 := x0 + colBlock
		if x1 > w {
			x1 = w
		}
		nb := x1 - x0
		s := p.col[worker]
		gather := func(y int) {
			base := y*w + x0
			for c := 0; c < nb; c++ {
				s[c*h+y] = data[base+c]
			}
		}
		if banded {
			for y := 0; y <= inBand; y++ {
				gather(y)
			}
			for c := 0; c < nb; c++ {
				seg := s[c*h : (c+1)*h]
				for y := inBand + 1; y < h-inBand; y++ {
					seg[y] = 0
				}
			}
			for y := h - inBand; y < h; y++ {
				gather(y)
			}
		} else {
			for y := 0; y < h; y++ {
				gather(y)
			}
		}
		for c := 0; c < nb; c++ {
			seg := s[c*h : (c+1)*h]
			if p.opInverse {
				p.colPlan.Inverse(seg)
			} else {
				p.colPlan.Forward(seg)
			}
		}
		for y := 0; y < h; y++ {
			base := y*w + x0
			for c := 0; c < nb; c++ {
				data[base+c] = s[c*h+y]
			}
		}
	}
	p.colColsBody = func(worker, i int) {
		w, h := p.w, p.h
		band, blocks, lowBlocks := p.opBand, p.opBlocks, p.opLowBlocks
		data := p.opFields[i/blocks].Data
		b := i % blocks
		var x0, x1 int
		if b < lowBlocks {
			x0 = b * colBlock
			x1 = x0 + colBlock
			if x1 > band+1 {
				x1 = band + 1
			}
		} else {
			x0 = w - band + (b-lowBlocks)*colBlock
			x1 = x0 + colBlock
			if x1 > w {
				x1 = w
			}
		}
		nb := x1 - x0
		s := p.col[worker]
		for y := 0; y < h; y++ {
			base := y*w + x0
			for c := 0; c < nb; c++ {
				s[c*h+y] = data[base+c]
			}
		}
		for c := 0; c < nb; c++ {
			seg := s[c*h : (c+1)*h]
			if p.opInverse {
				p.colPlan.Inverse(seg)
			} else {
				p.colPlan.Forward(seg)
			}
		}
		for y := 0; y < h; y++ {
			base := y*w + x0
			for c := 0; c < nb; c++ {
				data[base+c] = s[c*h+y]
			}
		}
	}
}

// W returns the plan width.
func (p *BatchPlan2D32) W() int { return p.w }

// H returns the plan height.
func (p *BatchPlan2D32) H() int { return p.h }

// Engine returns the execution engine the plan schedules on.
func (p *BatchPlan2D32) Engine() *engine.Engine { return p.eng }

func (p *BatchPlan2D32) check(fields []*grid.CField32) {
	for _, f := range fields {
		if f.W != p.w || f.H != p.h {
			panic(fmt.Sprintf("fft: field %dx%d does not match batch plan %dx%d", f.W, f.H, p.w, p.h))
		}
	}
}

// BatchForward computes the in-place unnormalised 2-D DFT of every
// field in the batch.
func (p *BatchPlan2D32) BatchForward(fields []*grid.CField32) {
	p.check(fields)
	start := time.Now()
	p.rowPass(fields, false)
	p.colPass(fields, false, -1)
	mBatchForwardNS.Observe(float64(time.Since(start)))
}

// BatchInverse computes the in-place inverse 2-D DFT (including the
// 1/(w·h) normalisation) of every field in the batch.
func (p *BatchPlan2D32) BatchInverse(fields []*grid.CField32) {
	p.check(fields)
	start := time.Now()
	p.rowPass(fields, true)
	p.colPass(fields, true, -1)
	mBatchInverseNS.Observe(float64(time.Since(start)))
}

// BatchInverseBanded is BatchInverse for spectra confined to the wrapped
// row band |v| ≤ band (see BatchPlan2D.BatchInverseBanded; the same
// stale-rows-treated-as-zero contract applies).
func (p *BatchPlan2D32) BatchInverseBanded(fields []*grid.CField32, band int) {
	p.check(fields)
	start := time.Now()
	if band < 0 || 2*band+1 >= p.h {
		p.rowPass(fields, true)
		p.colPass(fields, true, -1)
	} else {
		p.rowPassBanded(fields, band, true)
		p.colPass(fields, true, band)
	}
	mBatchInverseBandedNS.Observe(float64(time.Since(start)))
}

// BatchForwardBandedCols computes the forward DFT but transforms only
// the wrapped column band |u| ≤ band in the second pass (see
// BatchPlan2D.BatchForwardBandedCols; bins outside the band are
// undefined on return).
func (p *BatchPlan2D32) BatchForwardBandedCols(fields []*grid.CField32, band int) {
	p.check(fields)
	start := time.Now()
	p.rowPass(fields, false)
	if band < 0 || 2*band+1 >= p.w {
		p.colPass(fields, false, -1)
	} else {
		p.colPassCols(fields, band, false)
	}
	mBatchForwardColsNS.Observe(float64(time.Since(start)))
}

func (p *BatchPlan2D32) rowPass(fields []*grid.CField32, inverse bool) {
	p.opFields, p.opInverse = fields, inverse
	p.eng.ForChunk(len(fields)*p.h, p.rowBody)
	p.opFields = nil
}

func (p *BatchPlan2D32) rowPassBanded(fields []*grid.CField32, band int, inverse bool) {
	p.opFields, p.opBand, p.opInverse = fields, band, inverse
	p.eng.ForChunk(len(fields)*(2*band+1), p.rowBandedBody)
	p.opFields = nil
}

func (p *BatchPlan2D32) colPass(fields []*grid.CField32, inverse bool, inBand int) {
	blocks := (p.w + colBlock - 1) / colBlock
	p.opFields, p.opInverse, p.opBand, p.opBlocks = fields, inverse, inBand, blocks
	p.eng.Map(len(fields)*blocks, p.colBody)
	p.opFields = nil
}

func (p *BatchPlan2D32) colPassCols(fields []*grid.CField32, band int, inverse bool) {
	lowBlocks := (band + 1 + colBlock - 1) / colBlock
	highBlocks := (band + colBlock - 1) / colBlock
	blocks := lowBlocks + highBlocks
	p.opFields, p.opInverse, p.opBand = fields, inverse, band
	p.opBlocks, p.opLowBlocks = blocks, lowBlocks
	p.eng.Map(len(fields)*blocks, p.colColsBody)
	p.opFields = nil
}
