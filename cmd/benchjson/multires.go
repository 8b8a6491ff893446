package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lsopc"
	"lsopc/internal/benchfmt"
)

// multiresMain measures the Table II per-case optimization runtime for
// the full-resolution float64 reference and the coarse-to-fine float32
// fast path, writing both into one artefact under the fixed labels
// "baseline" and "multires". The same file then gates the speedup:
//
//	benchdiff -old-labels baseline -new-labels multires \
//	    BENCH_multires.json BENCH_multires.json
//
// exits non-zero if the fast path is ever slower than the reference —
// the schedule's quality equivalence is enforced separately by
// TestMultiResMatchesBaselineQuality (EPE/PVB within tolerance on all
// ten benchmarks).
func multiresMain(out, note, filter string) {
	const maxIter = 10 // matches the Table2PerCase measurements in BENCH_batchfft.json

	basePipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		fatal(err)
	}
	fastPipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine(), lsopc.WithPrecision(lsopc.Float32))
	if err != nil {
		fatal(err)
	}

	baseOpts := lsopc.DefaultLevelSetOptions()
	baseOpts.MaxIter = maxIter
	fastOpts := baseOpts
	fastOpts.MultiResFactor = 2

	variants := []struct {
		label string
		pipe  *lsopc.Pipeline
		opts  lsopc.LevelSetOptions
		note  string
	}{
		{"baseline", basePipe, baseOpts, "full-resolution float64 reference (the PR 1 batched path)"},
		{"multires", fastPipe, fastOpts, "coarse-to-fine factor 2 + float32 batches; " + note},
	}

	runs := map[string]benchfmt.Run{}
	for _, v := range variants {
		runs[v.label] = newRun(v.note)
	}
	// Variants interleave per case (baseline then multires back to back)
	// so slow thermal/host drift across the sweep cannot masquerade as a
	// variant difference.
	for _, spec := range lsopc.Benchmarks() {
		name := "Table2PerCase/" + spec.ID
		if !strings.Contains(name, filter) {
			continue
		}
		layout := lsopc.Benchmark(spec.ID)
		for _, v := range variants {
			pipe, opts := v.pipe, v.opts
			fmt.Fprintf(os.Stderr, "running %-10s %-22s ", v.label, name)
			runs[v.label].Benchmarks[name] = measure(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pipe.OptimizeLevelSet(layout, opts); err != nil {
						fatal(err)
					}
				}
			})
		}
	}
	save(out, "Table II per-case optimization runtime (PresetTest, 10 iterations): full-resolution float64 baseline vs coarse-to-fine multi-resolution with float32 spectral batches. Quality equivalence (final EPE/PVB within tolerance on all ten ICCAD cases) is enforced by TestMultiResMatchesBaselineQuality; this artefact locks in the speed side via cmd/benchdiff (-old-labels baseline -new-labels multires).", runs)
}
