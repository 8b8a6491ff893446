package main

// Concurrent-throughput mode (-sessions): how many full level-set
// optimization jobs per second the runtime sustains across the ten
// ICCAD benchmarks, comparing
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
// Results land in BENCH_sessions.json keyed by run label.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"lsopc"
	"lsopc/internal/core"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/optics"
)

// SessionsMeasurement is one throughput mode's outcome. The metrics map
// holds per-mode observability rates derived from the default registry:
// pool_hit_rate (pool leases served from the free list), plan_cache_hit_rate
// (FFT plan lookups served from cache) and worker_utilization (busy time
// per engine worker over the mode's wall time).
type SessionsMeasurement struct {
	Sessions      int                `json:"sessions"`
	Layouts       int                `json:"layouts"`
	ElapsedSec    float64            `json:"elapsed_sec"`
	LayoutsPerSec float64            `json:"layouts_per_sec"`
	Note          string             `json:"note,omitempty"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
}

// SessionsRun is one labelled sweep of all modes.
type SessionsRun struct {
	Timestamp  string                         `json:"timestamp"`
	GoMaxProcs int                            `json:"gomaxprocs"`
	NumCPU     int                            `json:"numcpu"`
	MaxIter    int                            `json:"max_iter"`
	Note       string                         `json:"note,omitempty"`
	Modes      map[string]SessionsMeasurement `json:"modes"`
	// Snapshot is the full flat dump of the default metrics registry at
	// the end of the sweep (-metrics only).
	Snapshot map[string]float64 `json:"metrics_snapshot,omitempty"`
}

// modeMetrics derives the per-mode observability rates from two registry
// snapshots bracketing the mode plus the engine's busy-time accumulator.
// workers is the mode's logical worker count (a sessions/k Split can run
// more logical workers than the root engine has), so utilization stays a
// fraction of the scheduled capacity even when oversubscribed.
func modeMetrics(before, after map[string]float64, wb *obs.WorkerBusy, wall time.Duration, workers int) map[string]float64 {
	d := func(k string) float64 { return after[k] - before[k] }
	m := map[string]float64{}
	if leases := d("rt.pool.leases"); leases > 0 {
		m["pool_hit_rate"] = d("rt.pool.reuses") / leases
	}
	if lookups := d("fft.plan_cache.hits") + d("fft.plan_cache.misses"); lookups > 0 {
		m["plan_cache_hit_rate"] = d("fft.plan_cache.hits") / lookups
	}
	if wb != nil && wall > 0 {
		m["worker_utilization"] = wb.UtilizationOver(wall, workers)
	}
	return m
}

// SessionsFile is the BENCH_sessions.json artefact.
type SessionsFile struct {
	Description string                 `json:"description"`
	GOOS        string                 `json:"goos"`
	GOARCH      string                 `json:"goarch"`
	Runs        map[string]SessionsRun `json:"runs"`
}

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

func sessionsMain(out, label, note, tracePath string, withSnapshot, withRecorder bool) {
	eng := lsopc.GPUEngine()
	// Per-worker busy-time accounting: Split sub-engines inherit the
	// accumulator with disjoint slots, so the sessions/k fan-out
	// attributes busy time to distinct workers. Sized for the widest
	// fan-out of the sweep — Sessions(k) keeps at least one worker per
	// sub-engine, so k can exceed the root worker count on small hosts.
	maxWorkers := eng.Workers()
	if n := runtime.NumCPU(); n > maxWorkers {
		maxWorkers = n
	}
	if maxWorkers < 2 {
		maxWorkers = 2 // the sweep always runs a sessions/2 mode
	}
	wb := obs.NewWorkerBusy(maxWorkers)
	eng.InstrumentBusy(wb)
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

	// Targets are rasterised once up front; every mode optimizes the
	// same images.
	specs := lsopc.Benchmarks()
	targets := make([]*grid.Field, len(specs))
	for i, s := range specs {
		t, err := pipe.Target(lsopc.Benchmark(s.ID))
		if err != nil {
			fatal(err)
		}
		targets[i] = t
	}

	run := SessionsRun{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		MaxIter:    sessionsMaxIter,
		Note:       note,
		Modes:      map[string]SessionsMeasurement{},
	}

	// Before: one dedicated pipeline per job, kernel banks re-derived
	// every time (bypassing the memoized bank cache via optics.NewBank).
	fmt.Fprintf(os.Stderr, "running %-24s ", "dedicated-pipelines")
	snap := lsopc.MetricsSnapshot()
	wb.Reset()
	start := time.Now()
	for i := range targets {
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
		err = optimizeJob(sim, targets[i])
		sim.Release()
		if err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)
	record(&run, "dedicated-pipelines", 1, len(targets), elapsed,
		"per-job kernel-bank synthesis and scratch (pre-session architecture)",
		modeMetrics(snap, lsopc.MetricsSnapshot(), wb, elapsed, eng.Workers()))

	// After: 1, 2, and NumCPU concurrent sessions over one shared bank.
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	for _, k := range counts {
		name := fmt.Sprintf("sessions/%d", k)
		fmt.Fprintf(os.Stderr, "running %-24s ", name)
		sessions, err := pipe.Sessions(k)
		if err != nil {
			fatal(err)
		}
		snap := lsopc.MetricsSnapshot()
		wb.Reset()
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, k)
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(targets); i += k {
					if err := optimizeJob(sessions[w].Simulator(), targets[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				fatal(err)
			}
		}
		for _, s := range sessions {
			s.Close()
		}
		logical := eng.Workers()
		if k > logical {
			logical = k
		}
		record(&run, name, k, len(targets), elapsed, "shared bank, pooled scratch",
			modeMetrics(snap, lsopc.MetricsSnapshot(), wb, elapsed, logical))
	}
	if withSnapshot {
		run.Snapshot = lsopc.MetricsSnapshot()
	}

	file := SessionsFile{
		Description: "Concurrent optimization throughput (layouts/sec over the ten ICCAD benchmarks at PresetTest scale, MaxIter=5). dedicated-pipelines re-derives kernel banks per job like the pre-session architecture; sessions/k runs k concurrent sessions over one shared resource bank.",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Runs:        map[string]SessionsRun{},
	}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", out, err)
			os.Exit(1)
		}
	}
	if file.Runs == nil {
		file.Runs = map[string]SessionsRun{}
	}
	file.Runs[label] = run

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (label %q, %d modes)\n", out, label, len(run.Modes))
}

func record(run *SessionsRun, name string, k, layouts int, elapsed time.Duration, note string, metrics map[string]float64) {
	m := SessionsMeasurement{
		Sessions:      k,
		Layouts:       layouts,
		ElapsedSec:    elapsed.Seconds(),
		LayoutsPerSec: float64(layouts) / elapsed.Seconds(),
		Note:          note,
		Metrics:       metrics,
	}
	run.Modes[name] = m
	fmt.Fprintf(os.Stderr, "%8.2fs  %6.2f layouts/sec  pool-hit=%.0f%% util=%.0f%%\n",
		m.ElapsedSec, m.LayoutsPerSec, 100*metrics["pool_hit_rate"], 100*metrics["worker_utilization"])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
