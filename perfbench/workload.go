package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"lsopc"
	"lsopc/internal/grid"
	"lsopc/internal/layouts"
	"lsopc/internal/litho"
)

// spec is one workload: the engine and schedule its jobs run at. Clip
// jobs run at PresetTest (128 px, 4 kernels) in float64; chips tile on
// PresetTest-sized windows. The reason each workload exists is recorded
// in BENCHMARK.json and README.md.
type spec struct {
	name     string
	parallel bool // the parallel engine (one worker per CPU) instead of the serial one
	iters    int
	tiled    bool
}

var specs = []spec{
	{name: "clips-serial", iters: 50},
	{name: "chip-tiled", parallel: true, iters: 10, tiled: true},
}

const (
	chipCells  = 4   // occupied slots of each chip-tiled cell array
	chips      = 15  // chip-tiled inputs; a run tiles whole rounds of all of them
	chipSide   = 4   // chip-tiled is a chipSide×chipSide cell array
	chipHaloNM = 256 // chip-tiled tile halo
	// chip-tiled tile windows are PresetTest's: 128 px at 16 nm, 4 kernels.
	windowPx, pitchNM, kernels = 128, 16, 4
	stitchPasses               = 2
	stitchIters                = 4
	warmupIters                = 2 // iterations of the untimed warm-up job
	// slotSeed fixes the occupied slots of the chip-tiled chips.
	slotSeed = 0x736c6f7473
)

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs builds the workload's layouts from the seed. The seed sets the
// clip order, and which cells of B1–B10 fill which occupied slots of the
// chip-tiled chips and in what order the chips run; the program only
// ever sees the resulting layouts.
//
// The chip-tiled inputs are stratified so that seeds differ in what the
// chips hold, not in how much work they are: the occupied slots of the
// chips are one fixed set of placements (slotSeed), and each round of
// chips uses every clip the same number of times. How many tiles a chip
// has depends on where its cells sit, so free placements made the work
// of a round, and with it the per-job figures, move by a tenth from seed
// to seed.
func inputs(s spec, seed int64) ([]*lsopc.Layout, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6c736f7063))
	var ids []string
	for _, b := range lsopc.Benchmarks() {
		ids = append(ids, b.ID)
	}
	if s.tiled {
		var out []*lsopc.Layout
		for _, cells := range chipArrays(rng, ids) {
			chip, err := layouts.Chip(chipSide, chipSide, cells)
			if err != nil {
				return nil, err
			}
			out = append(out, chip)
		}
		return out, nil
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	out := make([]*lsopc.Layout, len(ids))
	for i, id := range ids {
		l, err := lsopc.BenchmarkByID(id)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// chipArrays deals the clips ids onto the fixed occupied slots of the
// chip-tiled chips: each round of chips uses every clip equally often,
// and rng decides which cell goes where and the order of the chips.
func chipArrays(rng *rand.Rand, ids []string) [][]string {
	var deck []string
	for len(deck) < chips*chipCells {
		deck = append(deck, ids...)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	slots := chipSlots()
	arrays := make([][]string, chips)
	for c, p := range rng.Perm(chips) {
		cells := make([]string, chipSide*chipSide)
		for i := range cells {
			cells[i] = layouts.EmptyCell
		}
		for k, slot := range slots[p] {
			cells[slot] = deck[c*chipCells+k]
		}
		arrays[c] = cells
	}
	return arrays
}

// chipSlots returns the occupied slots of each chip-tiled chip, the same
// for every seed.
func chipSlots() [][]int {
	rng := rand.New(rand.NewPCG(slotSeed, 0))
	slots := make([][]int, chips)
	for c := range slots {
		slots[c] = rng.Perm(chipSide * chipSide)[:chipCells]
	}
	return slots
}

// bench is a set-up workload: pipelines, a leased session and the
// rasterised targets, ready to run jobs back to back from one client.
type bench struct {
	spec   spec
	eng    *lsopc.Engine
	pipe   *lsopc.Pipeline // clip pipeline, or the tile-window pipeline
	sess   *lsopc.Session  // clip workloads
	opts   lsopc.LevelSetOptions
	tile   lsopc.TileOptions
	inputs []*lsopc.Layout

	// chip-tiled: a chip-spanning pipeline that evaluates the stitched
	// mask outside the timed job.
	evalPipe *lsopc.Pipeline
	// costSpec and costImgs are totalCost's scratch, kept so output
	// checks do not churn the heap between timed calls.
	costSpec *grid.CField
	costImgs *litho.CornerImages
	// baseCost caches each input's total cost (Eq. 13) with the target
	// printed as its own mask: the initial cost a job must beat.
	baseCost map[int]float64
}

// newBench sets up a workload on eng (nil picks the spec's engine) and
// runs one untimed warm-up job so lazy set-up and pool fill are not
// timed. The warm-up job runs on the first input of seed 0, so set-up
// does the same work whatever the seed.
func newBench(s spec, seed int64, eng *lsopc.Engine) (*bench, error) {
	ins, err := inputs(s, seed)
	if err != nil {
		return nil, err
	}
	if eng == nil {
		eng = lsopc.CPUEngine()
		if s.parallel {
			eng = lsopc.GPUEngine()
		}
	}
	b := &bench{spec: s, eng: eng, inputs: ins, opts: lsopc.DefaultLevelSetOptions(), baseCost: map[int]float64{}}
	b.opts.MaxIter = s.iters
	if s.tiled {
		b.pipe, err = lsopc.NewCustomPipeline(windowPx, pitchNM, kernels, eng)
		if err != nil {
			return nil, err
		}
		b.tile = lsopc.TileOptions{
			HaloNM: chipHaloNM, Workers: runtime.NumCPU(), Core: b.opts,
			StitchPasses: stitchPasses, StitchIters: stitchIters,
		}
		if b.evalPipe, err = lsopc.NewCustomPipeline(ins[0].W/pitchNM, pitchNM, kernels, eng); err != nil {
			return nil, err
		}
	} else {
		if b.pipe, err = lsopc.NewPipeline(lsopc.PresetTest, eng); err != nil {
			return nil, err
		}
		if b.sess, err = b.pipe.Session(); err != nil {
			return nil, err
		}
	}
	for _, l := range ins {
		if _, err := b.target(l); err != nil {
			return nil, err
		}
	}
	fixed, err := inputs(s, 0)
	if err != nil {
		return nil, err
	}
	warm := *b
	warm.inputs = fixed[:1]
	warm.opts.MaxIter = warmupIters
	warm.tile.Core.MaxIter = warmupIters
	warm.tile.StitchIters = 1
	if out := warm.runJob(context.Background(), 0, false); out.err != nil {
		return nil, fmt.Errorf("warm-up job: %w", out.err)
	}
	return b, nil
}

// evaluator is the pipeline a job's output is judged on: the clip
// pipeline, or the chip-spanning one for chip-tiled.
func (b *bench) evaluator() *lsopc.Pipeline {
	if b.evalPipe != nil {
		return b.evalPipe
	}
	return b.pipe
}

func (b *bench) target(l *lsopc.Layout) (*lsopc.Field, error) { return b.evaluator().Target(l) }

// totalCost is the optimizer's objective (Eq. 13) for mask at full
// resolution: the nominal cost plus w_pvb times the outer and inner
// corner costs. A chip has no single cost history, so every job is
// judged on this rather than on its recorded costs.
func (b *bench) totalCost(mask, target *lsopc.Field) float64 {
	sim := b.evaluator().Simulator()
	if b.costSpec == nil {
		n := sim.GridSize()
		b.costSpec, b.costImgs = grid.NewCField(n, n), litho.NewCornerImages(n)
	}
	spec, imgs := b.costSpec, b.costImgs
	sim.MaskSpectrumInto(spec, mask)
	var cost float64
	for _, cond := range litho.AllConditions {
		sim.Forward(imgs, spec, cond)
		w := 1.0
		if cond != litho.Nominal {
			w = b.opts.PVBWeight
		}
		cost += w * litho.CostAt(imgs.R, target)
	}
	return cost
}

func (b *bench) close() {
	b.sess.Close()
	b.pipe.Release()
	if b.evalPipe != nil {
		b.evalPipe.Release()
	}
}

// outcome is one job: its timing, its contest report and its output
// check. err is non-nil when the job failed or any check did.
type outcome struct {
	input  int
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64 // heap bytes allocated during the call
	report lsopc.Report
	run    *lsopc.RunResult   // clip jobs
	tiled  *lsopc.TiledResult // chip jobs
	err    error
}

// runJob runs job k and, unless check is false (the short warm-up job),
// checks its output.
func (b *bench) runJob(ctx context.Context, k int, check bool) outcome {
	out := b.call(ctx, k)
	if out.err == nil && check {
		out.err = b.check(&out)
	}
	return out
}

// call runs job k (input k mod len(inputs)) and times it: one clip
// optimize + evaluate on the held session, or one tiled chip.
func (b *bench) call(ctx context.Context, k int) outcome {
	out := outcome{input: k % len(b.inputs)}
	l := b.inputs[out.input]
	a0 := allocBytes()
	c0 := cpuTime()
	t0 := time.Now()
	if b.spec.tiled {
		out.tiled, out.err = b.pipe.OptimizeTiledContext(ctx, l, b.tile)
	} else {
		out.run, out.err = b.sess.OptimizeLevelSetContext(ctx, l, b.opts)
	}
	out.wall = time.Since(t0)
	out.cpu = cpuTime() - c0
	out.alloc = allocBytes() - a0
	return out
}

// check runs a job's output checks after its clock stopped; for a chip
// this includes evaluating the stitched mask.
func (b *bench) check(out *outcome) error {
	l := b.inputs[out.input]
	var mask *lsopc.Field
	var err error
	if b.spec.tiled {
		mask, err = b.checkChip(out, l)
	} else {
		mask, out.report, err = out.run.Mask, out.run.Report, checkRun(out.run, b.pipe.GridSize())
	}
	if err != nil {
		return err
	}
	return b.checkCost(out.input, l, mask)
}

// checkCost requires the job's mask to score below the unoptimized
// target on the optimizer's own objective.
func (b *bench) checkCost(input int, l *lsopc.Layout, mask *lsopc.Field) error {
	target, err := b.target(l)
	if err != nil {
		return err
	}
	base, ok := b.baseCost[input]
	if !ok {
		base = b.totalCost(target, target)
		b.baseCost[input] = base
	}
	if cost := b.totalCost(mask, target); !(cost < base) {
		return fmt.Errorf("mask cost %g not below the initial cost %g", cost, base)
	}
	return nil
}

// checkRun verifies a clip job's output: not aborted, every recorded
// cost finite, a valid report, and a binary mask of the grid's size.
func checkRun(res *lsopc.RunResult, n int) error {
	ls := res.LevelSet
	switch {
	case ls == nil || len(ls.History) == 0:
		return errors.New("no optimizer history")
	case ls.Aborted:
		return fmt.Errorf("aborted: %s", ls.AbortReason)
	}
	for _, h := range ls.History {
		if !finite(h.CostTotal) {
			return fmt.Errorf("iteration %d: non-finite cost %g", h.Iter, h.CostTotal)
		}
	}
	if err := checkReport(res.Report); err != nil {
		return err
	}
	return checkMask(res.Mask, n, n)
}

// checkChip verifies a tiled job and evaluates its stitched mask on the
// chip-spanning pipeline: a binary chip-sized mask, a finite ψ, and
// every non-empty tile optimized.
func (b *bench) checkChip(out *outcome, l *lsopc.Layout) (*lsopc.Field, error) {
	res := out.tiled
	n := b.evalPipe.GridSize()
	if err := checkMask(res.Mask, n, n); err != nil {
		return nil, err
	}
	for _, v := range res.Psi.Data {
		if !finite(v) {
			return nil, errors.New("non-finite chip level-set value")
		}
	}
	for _, t := range res.Tiles {
		if !t.Empty && t.Iterations == 0 {
			return nil, fmt.Errorf("tile %d never ran", t.Index+1)
		}
	}
	report, err := b.evalPipe.Evaluate(l, res.Mask, res.Elapsed)
	if err != nil {
		return nil, err
	}
	out.report = report
	return res.Mask, checkReport(report)
}

func checkReport(r lsopc.Report) error {
	if !finite(r.PVBandNM2) || r.PVBandNM2 < 0 || r.EPEViolations < 0 || r.ShapeViolations < 0 {
		return fmt.Errorf("invalid report %+v", r)
	}
	return nil
}

func checkMask(m *lsopc.Field, w, h int) error {
	if m == nil || m.W != w || m.H != h {
		return fmt.Errorf("mask is not %dx%d", w, h)
	}
	for _, v := range m.Data {
		if v != 0 && v != 1 {
			return fmt.Errorf("mask is not binary (value %g)", v)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
