package main

// Concurrent-throughput mode (-sessions): how fast the runtime works
// through full level-set optimization jobs over the ten ICCAD
// benchmarks, comparing
//
//   - dedicated-pipelines — the pre-session architecture: every job
//     synthesises its own SOCS kernel banks and allocates fresh
//     simulator scratch (what N duplicated Pipelines used to cost);
//   - sessions/1, sessions/2, sessions/N — one shared resource bank with
//     1, 2, and NumCPU concurrent sessions leasing pooled scratch, the
//     jobs fanned across goroutines on an Engine.Split partition.
//
// Every mode runs the identical core optimization (same schedule, same
// iteration budget), so the delta is purely the resource architecture.
// One benchmark op is one layout: ns_per_op is wall time per layout
// (1e9/ns_per_op layouts per second). Results land in
// BENCH_sessions.json keyed by run label.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lsopc"
	"lsopc/internal/benchfmt"
	"lsopc/internal/core"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/optics"
)

const sessionsMaxIter = 5

// optimizeJob is the unit of work every mode runs per layout: a full
// level-set optimization against the rasterised target.
func optimizeJob(sim *litho.Simulator, target *grid.Field) error {
	opts := core.DefaultOptions()
	opts.MaxIter = sessionsMaxIter
	opt, err := core.New(sim, target, opts)
	if err != nil {
		return err
	}
	defer opt.Release()
	_, err = opt.Run()
	return err
}

func sessionsMain(out, label, note, filter, tracePath string, withRecorder bool) {
	eng := lsopc.GPUEngine()
	var popts []lsopc.PipelineOption
	var sinks []lsopc.TraceSink
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		sink := lsopc.NewJSONLTraceSink(f)
		sinks = append(sinks, sink)
		defer func() {
			if err := lsopc.FlushTrace(sink); err != nil {
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "event trace written to %s\n", tracePath)
		}()
	}
	if withRecorder {
		// The recorder-enabled leg: every event also lands in the flight
		// recorder's per-run rings, so the throughput delta against the
		// plain legs is the recorder's hot-path cost. Bundles (if any)
		// go to a throwaway directory.
		dir, err := os.MkdirTemp("", "lsopc-flight-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		rec := lsopc.NewFlightRecorder(lsopc.FlightRecorderConfig{Dir: dir})
		defer rec.Close()
		sinks = append(sinks, rec)
		popts = append(popts, lsopc.WithFlightRecorder(rec))
	}
	if len(sinks) > 0 {
		popts = append(popts, lsopc.WithTraceSink(lsopc.TeeTraceSink(sinks...)))
	}
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, eng, popts...)
	if err != nil {
		fatal(err)
	}
	defer pipe.Release()
	cfg := pipe.Simulator().Config()

	// Targets are rasterised once up front; op i of every mode
	// optimizes target i mod 10.
	specs := lsopc.Benchmarks()
	targets := make([]*grid.Field, len(specs))
	for i, s := range specs {
		t, err := pipe.Target(lsopc.Benchmark(s.ID))
		if err != nil {
			fatal(err)
		}
		targets[i] = t
	}

	type mode struct {
		name, note string
		fn         func(b *testing.B)
	}
	// Before: one dedicated pipeline per job, kernel banks re-derived
	// every time (bypassing the memoized bank cache via optics.NewBank).
	modes := []mode{{"dedicated-pipelines", "per-job kernel-bank synthesis and scratch (pre-session architecture)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nom, err := optics.NewBank(cfg.Optics, 0, eng)
			if err != nil {
				fatal(err)
			}
			def, err := optics.NewBank(cfg.Optics, cfg.DefocusNM, eng)
			if err != nil {
				fatal(err)
			}
			sim, err := litho.NewWithBanks(cfg, eng, nom, def)
			if err != nil {
				fatal(err)
			}
			err = optimizeJob(sim, targets[i%len(targets)])
			sim.Release()
			if err != nil {
				fatal(err)
			}
		}
	}}}
	// After: 1, 2, and NumCPU concurrent sessions over one shared bank.
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	for _, k := range counts {
		modes = append(modes, mode{fmt.Sprintf("sessions/%d", k), "shared bank, pooled scratch", func(b *testing.B) {
			sessions, err := pipe.Sessions(k)
			if err != nil {
				fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make([]error, k)
			for w := 0; w < k; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < b.N; i += k {
						if err := optimizeJob(sessions[w].Simulator(), targets[i%len(targets)]); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			if err := errors.Join(errs...); err != nil {
				fatal(err)
			}
			for _, s := range sessions {
				s.Close()
			}
		}})
	}

	run := newRun(note)
	for _, m := range modes {
		if !strings.Contains(m.name, filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-24s ", m.name)
		meas := measure(m.fn)
		meas.Note = m.note
		run.Benchmarks[m.name] = meas
	}
	save(out, fmt.Sprintf("Concurrent optimization throughput over the ten ICCAD benchmarks at PresetTest scale, MaxIter=%d: ns_per_op is wall time per layout. dedicated-pipelines re-derives kernel banks per job like the pre-session architecture; sessions/k runs k concurrent sessions over one shared resource bank.", sessionsMaxIter),
		map[string]benchfmt.Run{label: run})
}
