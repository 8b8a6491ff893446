package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"lsopc"
	"lsopc/internal/benchfmt"
	"lsopc/internal/layouts"
)

// tiledMain measures full-chip optimization wall time monolithic vs
// tiled on the same composed cell-array chip, writing both into one
// artefact under the fixed labels "monolithic" and "tiled". The
// monolithic variant simulates the whole chip in one window (a custom
// pipeline whose grid covers the chip); the tiled variant decomposes it
// into PresetTest-sized windows with an overlap halo and stitches the
// seams. The chip is sparse (25% cell occupancy, like real designs):
// that is where tiling wins even on one worker, because its work
// scales with the occupied windows — empty tiles are skipped — while
// the monolithic window pays full-grid FFTs for the whole canvas.
// Worker fan-out across tiles stacks on top of that on multi-core
// hosts. The same file then gates the scaling win:
//
//	benchdiff -old-labels monolithic -new-labels tiled \
//	    BENCH_tiled.json BENCH_tiled.json
//
// Quality parity between the two paths is enforced separately by
// TestTiledMatchesMonolithic (EPE/PVB on B1).
func tiledMain(out, note, filter string) {
	const (
		maxIter = 10 // matches the Table2PerCase measurements
		pitchNM = 16
		kernels = 4 // PresetTest optics
	)

	eng := lsopc.GPUEngine()
	// 4x4 cell array, 4 occupied slots scattered across it (the cycle
	// places B1/B4 at (0,0), (1,1), (0,2) and (1,3)).
	chip, err := layouts.Chip(4, 4, []string{"B1", "-", "-", "-", "-", "B4", "-", "-"})
	if err != nil {
		fatal(err)
	}
	name := "FullChip/" + chip.Name
	if !strings.Contains(name, filter) {
		fatal(fmt.Errorf("-bench %q excludes %s, the only benchmark of this leg", filter, name))
	}

	opts := lsopc.DefaultLevelSetOptions()
	opts.MaxIter = maxIter
	topts := lsopc.TileOptions{
		HaloNM:       256,
		Core:         opts,
		StitchPasses: 2,
		StitchIters:  4,
	}

	// One un-timed tiled run up front: verifies the decomposition is a
	// real multi-tile problem and captures its shape for the run notes.
	// The probe pipeline is released again so each timed variant below
	// runs with only its own pipeline resident (a chip-spanning bank
	// plus a tile bank at once would distort both via GC pressure).
	shape := ""
	{
		probePipe, err := lsopc.NewPipeline(lsopc.PresetTest, eng)
		if err != nil {
			fatal(err)
		}
		probe, err := probePipe.OptimizeTiled(chip, topts)
		if err != nil {
			fatal(err)
		}
		probePipe.Release()
		if len(probe.Grid.Tiles) < 4 {
			fatal(fmt.Errorf("chip decomposes into %d tiles, want >= 4", len(probe.Grid.Tiles)))
		}
		occupied := 0
		for _, st := range probe.Tiles {
			if !st.Empty {
				occupied++
			}
		}
		shape = fmt.Sprintf("%s: %dx%d nm, %dx%d tiles / %d non-empty (window %d nm, halo %d nm), %d workers",
			chip.Name, chip.W, chip.H, probe.Grid.NX, probe.Grid.NY, occupied,
			probe.Grid.WindowNM, probe.Grid.HaloNM, probe.Workers)
		fmt.Fprintln(os.Stderr, shape)
	}

	variants := []struct {
		label string
		note  string
		run   func() (func() error, func())
	}{
		{"monolithic", "one chip-spanning window; " + shape, func() (func() error, func()) {
			// Monolithic: one window spanning the whole chip.
			mono, err := lsopc.NewCustomPipeline(chip.W/pitchNM, pitchNM, kernels, eng)
			if err != nil {
				fatal(err)
			}
			return func() error {
				_, err := mono.OptimizeLevelSet(chip, opts)
				return err
			}, mono.Release
		}},
		{"tiled", "OptimizeTiled with overlap-halo stitching; " + shape + "; " + note, func() (func() error, func()) {
			// Tiled: PresetTest windows (128 px = 2048 nm) over the chip.
			tiledPipe, err := lsopc.NewPipeline(lsopc.PresetTest, eng)
			if err != nil {
				fatal(err)
			}
			return func() error {
				_, err := tiledPipe.OptimizeTiled(chip, topts)
				return err
			}, tiledPipe.Release
		}},
	}

	runs := map[string]benchfmt.Run{}
	for _, v := range variants {
		fmt.Fprintf(os.Stderr, "running %-12s %-22s ", v.label, name)
		iter, release := v.run()
		run := newRun(v.note)
		run.Benchmarks[name] = measure(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := iter(); err != nil {
					fatal(err)
				}
			}
		})
		runs[v.label] = run
		release()
		runtime.GC()
	}
	save(out, "Full-chip optimization wall time (10 iterations) on a sparse 4x4 cell-array chip (4 occupied slots, like real designs): one monolithic chip-spanning simulation window vs parallel tiled optimization with overlap-halo stitching (window = PresetTest grid, empty tiles skipped). Seam quality parity is enforced by TestTiledMatchesMonolithic; this artefact locks in the tiled scaling via cmd/benchdiff (-old-labels monolithic -new-labels tiled).", runs)
}
