package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lsopc"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/levelset"
	"lsopc/internal/obs"
)

// The traced run splits each job's optimize time into the layers of the
// ledger. Where the program already keeps a histogram in obs.Default
// (batched FFT passes, litho forward+gradient, the optimizer step) the
// ledger reads the job's delta of it, so the time is measured in place.
// The level-set update and redistancing have none: they are replayed on
// the job's own ψ and multiplied by call counts derived from the
// iteration count and the options. Layer self-times:
//
//	fft.batch    Σ batched FFT passes (all run inside litho)
//	litho.self   Σ forward+gradient − fft.batch
//	levelset     mask extraction, |∇ψ|, time step, evolve, redistancing
//	             and the initial signed distance
//	core.self    Σ optimizer steps − litho − the level-set work inside
//	             the step: PRP combine, gradient sum and fork/join
//
// On the parallel engine the three process corners overlap, so corner
// (litho and FFT) sums are divided by the corner concurrency to put
// them on the job's wall-time basis. Chip shares are over Σ tile time:
// tiles run concurrently, each on a serial sub-engine.

// histogram names in obs.Default the ledger reads.
var batchHists = []string{
	"fft.batch.forward_ns", "fft.batch.inverse_ns",
	"fft.batch.inverse_banded_ns", "fft.batch.forward_banded_cols_ns",
}

const (
	lithoHist = "litho.forward_gradient_ns"
	stepHist  = "core.step_ns"
)

// snapDelta is after − before of the named snapshot key.
func snapDelta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// layerCounts are one job's program-measured counts and times, read from
// obs.Default around the optimize call.
type layerCounts struct {
	batchCalls, batchNS float64
	lithoCalls, lithoNS float64
	stepNS, iterations  float64
}

func readCounts(before, after map[string]float64) layerCounts {
	var c layerCounts
	for _, h := range batchHists {
		c.batchCalls += snapDelta(before, after, h+".count")
		c.batchNS += snapDelta(before, after, h+".sum")
	}
	c.lithoCalls = snapDelta(before, after, lithoHist+".count")
	c.lithoNS = snapDelta(before, after, lithoHist+".sum")
	c.stepNS = snapDelta(before, after, stepHist+".sum")
	c.iterations = snapDelta(before, after, "core.iterations")
	return c
}

func (c layerCounts) minus(d layerCounts) layerCounts {
	return layerCounts{
		c.batchCalls - d.batchCalls, c.batchNS - d.batchNS,
		c.lithoCalls - d.lithoCalls, c.lithoNS - d.lithoNS,
		c.stepNS - d.stepNS, c.iterations - d.iterations,
	}
}

// levelRun is one optimizer run: a clip job, or one tile optimization
// of a chip.
type levelRun struct {
	iters int
	sdf   bool // starts from the target's signed distance (else from the stitched ψ)
}

// tileRuns collects a tiled job's tile optimizations from the tile_done
// events it emits.
type tileRuns struct {
	mu   sync.Mutex
	runs []levelRun
}

// Emit implements obs.Sink.
func (t *tileRuns) Emit(e obs.Event) {
	if e.Type != obs.EventTileDone {
		return
	}
	t.mu.Lock()
	t.runs = append(t.runs, levelRun{iters: e.Iter, sdf: e.Pass == 0})
	t.mu.Unlock()
}

// replay returns the median time of one call of fn over reps timed
// calls, after one untimed call.
func replay(reps int, fn func()) time.Duration {
	fn()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return nsDur(median(ds))
}

// allocsPerCall is the mean heap allocation count of one call of fn.
func allocsPerCall(reps int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(reps)
}

// levelsetCost is the replayed level-set time of one job.
type levelsetCost struct {
	inStep time.Duration // per iteration: mask extraction, |∇ψ|, time step
	evolve time.Duration // per iteration
	reinit time.Duration // per periodic redistancing
	sdf    time.Duration // per initial signed distance
}

func replayLevelset(psi *lsopc.Field) levelsetCost {
	const reps = 20
	mask := grid.NewFieldLike(psi)
	gmag := grid.NewFieldLike(psi)
	work := psi.Clone()
	var c levelsetCost
	c.inStep = replay(reps, func() {
		levelset.MaskFromPsi(mask, psi)
		levelset.GradMag(gmag, psi)
		levelset.TimeStep(2, psi)
	})
	c.evolve = replay(reps, func() { levelset.Evolve(work, psi, 0) })
	c.reinit = replay(reps, func() { levelset.Reinitialize(psi) })
	levelset.MaskFromPsi(mask, psi)
	c.sdf = replay(reps, func() { levelset.SignedDistance(mask) })
	return c
}

// fftKernelNS is the median time of one in-place 1-D transform of length
// n through Plan.Forward, timed in batches so the clock's resolution does
// not matter.
func fftKernelNS(n int, rng *rand.Rand) float64 {
	const batch = 64
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(rng.Float64(), rng.Float64())
	}
	x := make([]complex128, n)
	forward := fft.CachedPlan(n).Forward
	return float64(replay(200, func() {
		for i := 0; i < batch; i++ {
			copy(x, src)
			forward(x)
		}
	})) / batch
}

// jobLedger is one traced job's per-layer numbers.
type jobLedger struct {
	wall, busy         time.Duration // busy: engine worker time during the call
	optimize, evaluate time.Duration
	counts             layerCounts
	batch, lithoSelf   time.Duration // wall-time basis
	levelset, coreSelf time.Duration
	levelsetUpdate     time.Duration // per iteration
	reinitCalls        int
	reinit             time.Duration // per call
	reinitAllocs       float64
	// chip jobs
	tiles, tileRuns int
	tileMS          float64
	overhead        time.Duration
	seam            float64
}

func (j jobLedger) coverage() float64 {
	return coverage(j.optimize, j.batch, j.lithoSelf, j.levelset, j.coreSelf)
}

// tracer runs traced jobs and keeps their spans in memory.
type tracer struct {
	b    *bench
	busy *obs.WorkerBusy
	buf  bytes.Buffer
	sink *obs.JSONLSink
}

func (t *tracer) span(job, name string, d time.Duration) {
	t.sink.Emit(obs.Event{Type: obs.EventSpan, Trace: job, Name: name, Engine: t.b.eng.Name(), DurNS: d.Nanoseconds()})
}

// cornerConcurrency is how many corner simulations of one optimizer run
// at once: the corners share the session engine's workers.
func cornerConcurrency(workers int) float64 {
	const corners = 3
	w := min(workers, corners)
	rounds := (corners + w - 1) / w
	return float64(corners) / float64(rounds)
}

// job runs and traces job k. Engine busy time is recorded during the
// call alone, so the untraced jobs around it run uninstrumented.
func (t *tracer) job(k int) (jobLedger, outcome) {
	b := t.b
	id := fmt.Sprintf("job%d", k+1)
	var tr tileRuns
	if b.spec.tiled {
		b.tile.Sink, b.tile.TraceID = &tr, id
		defer func() { b.tile.Sink = nil }()
	}
	var j jobLedger
	before := lsopc.MetricsSnapshot()
	busy0 := t.busy.Total()
	b.eng.InstrumentBusy(t.busy)
	out := b.call(context.Background(), k)
	b.eng.InstrumentBusy(nil)
	j.busy = t.busy.Total() - busy0
	after := lsopc.MetricsSnapshot()
	if out.err != nil {
		return j, out
	}
	if out.err = b.check(&out); out.err != nil {
		return j, out
	}
	j.wall = out.wall
	j.counts = readCounts(before, after)
	t.span(id, "job", out.wall)

	// The evaluate inside a clip job is timed again on its mask; its
	// counts come off the job's so the ledger covers optimize alone.
	l := b.inputs[out.input]
	evalBefore := lsopc.MetricsSnapshot()
	t0 := time.Now()
	var err error
	if b.spec.tiled {
		_, err = b.evalPipe.Evaluate(l, out.tiled.Mask, 0)
	} else {
		_, err = b.sess.Evaluate(l, out.run.Mask, 0)
	}
	j.evaluate = time.Since(t0)
	if err != nil {
		out.err = fmt.Errorf("evaluate: %w", err)
		return j, out
	}
	t.span(id, "lsopc.evaluate", j.evaluate)

	var runs []levelRun
	var psi *lsopc.Field
	conc := 1.0
	if b.spec.tiled {
		res := out.tiled
		n := b.pipe.GridSize()
		var durs []time.Duration
		var tileMS []float64
		for _, ts := range res.Tiles {
			if ts.Empty {
				continue
			}
			j.tiles++
			durs = append(durs, ts.Dur)
			tileMS = append(tileMS, ms(ts.Dur))
			j.optimize += ts.Dur
			if psi == nil {
				w := ts.Window
				psi = res.Psi.SubRegion(w.X0/pitchNM, w.Y0/pitchNM, n, n)
			}
		}
		j.tileMS = median(tileMS)
		j.overhead = tilingOverhead(out.wall, durs, res.Workers)
		j.seam = res.Seam
		tr.mu.Lock()
		runs = tr.runs
		tr.mu.Unlock()
		j.tileRuns = len(runs)
		conc = cornerConcurrency(max(1, b.eng.Workers()/res.Workers))
		t.span(id, "lsopc.optimize_tiled", res.Elapsed)
	} else {
		j.counts = j.counts.minus(readCounts(evalBefore, lsopc.MetricsSnapshot()))
		j.optimize = out.run.Elapsed
		psi = out.run.LevelSet.Psi
		runs = []levelRun{{iters: int(j.counts.iterations), sdf: true}}
		conc = cornerConcurrency(b.eng.Workers())
		t.span(id, "lsopc.optimize", j.optimize)
	}

	// Layer self-times.
	c := j.counts
	j.batch = nsDur(c.batchNS / conc)
	j.lithoSelf = nsDur((c.lithoNS - c.batchNS) / conc)
	lc := replayLevelset(psi)
	var redistance time.Duration
	iters := 0
	for _, r := range runs {
		periodic := 0
		if b.opts.ReinitEvery > 0 {
			periodic = r.iters / b.opts.ReinitEvery
		}
		j.reinitCalls += periodic
		redistance += time.Duration(periodic) * lc.reinit
		if r.sdf {
			j.reinitCalls++
			redistance += lc.sdf
		}
		iters += r.iters
	}
	j.levelsetUpdate = lc.inStep + lc.evolve
	j.levelset = time.Duration(iters)*j.levelsetUpdate + redistance
	if j.reinitCalls > 0 {
		j.reinit = redistance / time.Duration(j.reinitCalls)
	}
	j.reinitAllocs = allocsPerCall(5, func() { levelset.Reinitialize(psi) })
	j.coreSelf = nsDur(c.stepNS-c.lithoNS/conc) - time.Duration(iters)*lc.inStep

	t.span(id, "layer.fft.batch", j.batch)
	t.span(id, "layer.litho.self", j.lithoSelf)
	t.span(id, "layer.levelset", j.levelset)
	t.span(id, "layer.core.self", j.coreSelf)
	return j, out
}

// traced is the -trace 1 run. Each traced job, with its replays, follows
// an untraced job on the same input, so trace.overhead compares the two
// on like inputs; the pairs run until budget is spent, at least once.
// Spans stay in memory and are written to path at the end.
func traced(s spec, seed int64, budget time.Duration, path string) (*result, error) {
	eng := lsopc.CPUEngine()
	if s.parallel {
		eng = lsopc.GPUEngine()
	}
	b, err := newBench(s, seed, eng)
	if err != nil {
		return nil, err
	}
	defer b.close()
	t := &tracer{b: b, busy: obs.NewWorkerBusy(eng.Workers())}
	t.sink = obs.NewJSONLSink(&t.buf)
	var tl tally
	q := quality{}
	var jobs []jobLedger
	var plain, ratios []float64
	var wall, busy time.Duration
	before := lsopc.MetricsSnapshot()
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < budget; k++ {
		p := b.runJob(context.Background(), k, true)
		tl.record(p, os.Stderr)
		q.add(p)
		j, out := t.job(k)
		tl.record(out, os.Stderr)
		q.add(out)
		if p.err != nil || out.err != nil {
			continue
		}
		jobs = append(jobs, j)
		plain = append(plain, p.wall.Seconds())
		ratios = append(ratios, j.wall.Seconds()/p.wall.Seconds())
		wall += j.wall
		busy += j.busy
	}
	after := lsopc.MetricsSnapshot()
	if len(jobs) == 0 {
		return tl.result(nil), nil
	}
	if err := writeTrace(path, &t.buf, t.sink); err != nil {
		return nil, err
	}
	m := ledgerMetrics(jobs)
	m["fft.kernel.ns"] = metric{fftKernelNS(b.pipe.GridSize(), rand.New(rand.NewPCG(uint64(seed), 1))), "ns"}
	leases := snapDelta(before, after, "rt.pool.leases")
	m["rt.pool.reuse_ratio"] = metric{snapDelta(before, after, "rt.pool.reuses") / leases, "ratio"}
	m["engine.utilization"] = metric{float64(busy) / (float64(wall) * float64(eng.Workers())), "ratio"}
	m["trace.overhead"] = metric{median(ratios), "ratio"}
	m["lsopc.job_s"] = metric{median(plain), "s"}
	var epe, shape int
	var pvb float64
	for _, r := range q {
		epe += r.EPEViolations
		pvb += r.PVBandNM2
		shape += r.ShapeViolations
	}
	m["quality.epe_violations"] = metric{float64(epe), "count"}
	m["quality.pvb_nm2"] = metric{pvb, "nm2"}
	m["quality.shape_violations"] = metric{float64(shape), "count"}
	return tl.result(m), nil
}

// quality keeps the contest report of each input's first successful
// job; jobs are deterministic, so a repeat adds nothing.
type quality map[int]lsopc.Report

func (q quality) add(out outcome) {
	if _, seen := q[out.input]; !seen && out.err == nil {
		q[out.input] = out.report
	}
}

// ledgerMetrics takes the median of each per-layer number over the
// traced jobs.
func ledgerMetrics(jobs []jobLedger) map[string]metric {
	med := func(f func(j jobLedger) float64) float64 {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = f(j)
		}
		return median(xs)
	}
	share := func(f func(j jobLedger) time.Duration) float64 {
		return med(func(j jobLedger) float64 { return float64(f(j)) / float64(j.optimize) })
	}
	m := map[string]metric{
		"fft.batch.calls":        {med(func(j jobLedger) float64 { return j.counts.batchCalls }), "count"},
		"fft.batch.ms":           {med(func(j jobLedger) float64 { return ms(j.batch) }), "ms"},
		"fft.batch.share":        {share(func(j jobLedger) time.Duration { return j.batch }), "ratio"},
		"litho.calls":            {med(func(j jobLedger) float64 { return j.counts.lithoCalls }), "count"},
		"litho.ms":               {med(func(j jobLedger) float64 { return j.counts.lithoNS / j.counts.lithoCalls / 1e6 }), "ms"},
		"litho.self_share":       {share(func(j jobLedger) time.Duration { return j.lithoSelf }), "ratio"},
		"levelset.update_ms":     {med(func(j jobLedger) float64 { return ms(j.levelsetUpdate) }), "ms"},
		"levelset.reinit_calls":  {med(func(j jobLedger) float64 { return float64(j.reinitCalls) }), "count"},
		"levelset.reinit_ms":     {med(func(j jobLedger) float64 { return ms(j.reinit) }), "ms"},
		"levelset.reinit_allocs": {med(func(j jobLedger) float64 { return j.reinitAllocs }), "count"},
		"levelset.share":         {share(func(j jobLedger) time.Duration { return j.levelset }), "ratio"},
		"core.iterations":        {med(func(j jobLedger) float64 { return j.counts.iterations }), "count"},
		"core.iter_ms":           {med(func(j jobLedger) float64 { return ms(j.optimize) / j.counts.iterations }), "ms"},
		"core.self_share":        {share(func(j jobLedger) time.Duration { return j.coreSelf }), "ratio"},
		"lsopc.optimize_ms":      {med(func(j jobLedger) float64 { return ms(j.optimize) }), "ms"},
		"lsopc.evaluate_ms":      {med(func(j jobLedger) float64 { return ms(j.evaluate) }), "ms"},
		"tiling.tiles":           {med(func(j jobLedger) float64 { return float64(j.tiles) }), "count"},
		"tiling.tile_runs":       {med(func(j jobLedger) float64 { return float64(j.tileRuns) }), "count"},
		"tiling.tile_ms":         {med(func(j jobLedger) float64 { return j.tileMS }), "ms"},
		"tiling.rerun_ratio":     {med(rerunRatio), "ratio"},
		"tiling.overhead_ms":     {med(func(j jobLedger) float64 { return ms(j.overhead) }), "ms"},
		"tiling.seam":            {med(func(j jobLedger) float64 { return j.seam }), "ratio"},
		"ledger.coverage":        {med(jobLedger.coverage), "ratio"},
	}
	return m
}

// rerunRatio is a chip's stitch re-runs over its non-empty tiles (0 for
// clip jobs, which have no tiles).
func rerunRatio(j jobLedger) float64 {
	if j.tiles == 0 {
		return 0
	}
	return float64(j.tileRuns-j.tiles) / float64(j.tiles)
}

// writeTrace flushes the in-memory spans and writes them to path.
func writeTrace(path string, buf *bytes.Buffer, sink *obs.JSONLSink) error {
	if err := sink.Flush(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
