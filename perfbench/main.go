// Command perfbench is the repository's benchmark. It sets up one named
// workload of level-set ILT jobs from a seed, runs jobs back to back
// from one client for a fixed time, checks every job's output, and
// prints the workload's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"job_cpu_s": {"value": 0.71, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// measured untraced; with -trace 1 a separate traced run reports the
// per-layer ledger and writes its spans as a JSONL trace. The line
// before the result records the environment (GOMAXPROCS, NumCPU, Go
// version, commit). A failed job makes the command exit 1 after
// printing its result.
//
// Build and run it from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload clips-serial --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady --runs 10   # steadiness report over seeds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many cold set-ups setup_s is the median of: the
// measuring process's own plus setupSamples−1 in fresh child processes,
// since the resource banks are cached process-wide after the first. The
// children run one at a time between jobs, spread evenly over the
// measured interval, so the median sees the same host as the jobs do.
//
// Job and set-up costs are CPU time, not wall time: on a shared 2-vCPU
// host the wall time of the same run moved by up to 80% between runs a
// minute apart while the CPU is taken away, which no bound can absorb.
// Both are scaled to the nominal host speed by the reference samples the
// measured loop runs (reference.go). Wall time per job is reported by
// the traced run (lsopc.job_s).
const setupSamples = 11

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "steady" {
		return steadyMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed (clip order, clip subset, chip placement)")
	seconds := fs.Float64("seconds", 10, "measured duration")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced per-layer ledger")
	traceOut := fs.String("trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	setupChild := fs.Bool("setup-child", false, "set up once, print the set-up CPU seconds and exit (used for setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if *setupChild {
		d, err := timedSetup(s, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, d.Seconds())
		return 0
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		out := *traceOut
		if out == "" {
			out = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", s.name, *seed)
		}
		res, err = traced(s, *seed, budget, out)
	} else {
		res, err = measure(s, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env, _ := json.Marshal(environment())
	fmt.Fprintf(stdout, "{\"env\": %s}\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, "|")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed jobs. Every job attempted in the
// measured interval is counted; a failure is never dropped.
type tally struct{ attempted, failed int }

func (t *tally) record(out outcome, stderr io.Writer) {
	t.attempted++
	if out.err != nil {
		t.failed++
		fmt.Fprintf(stderr, "perfbench: job %d (input %d) failed: %v\n", t.attempted, out.input, out.err)
	}
}

func (t *tally) result(m map[string]metric) *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// timedSetup sets a workload up (pipelines, banks, session, targets and
// one warm-up job) and returns the CPU time that took.
func timedSetup(s spec, seed int64) (time.Duration, error) {
	b, d, err := setup(s, seed)
	if err != nil {
		return 0, err
	}
	b.close()
	return d, nil
}

// setup builds the workload and returns it with its set-up CPU time.
func setup(s spec, seed int64) (*bench, time.Duration, error) {
	c0 := cpuTime()
	b, err := newBench(s, seed, nil)
	return b, cpuTime() - c0, err
}

// childDue reports whether set-up child i (from 0) is due once the timed
// calls add up to timed: child i runs when they pass i/(setupSamples−1)
// of the budget, so the children spread evenly over the measured
// interval.
func childDue(i int, timed, budget time.Duration) bool {
	return i < setupSamples-1 && timed >= budget*time.Duration(i)/(setupSamples-1)
}

// setupChild sets up cold in a child process, which it waits for, and
// returns the child's set-up CPU seconds.
func setupChild(s spec, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", s.name, "-seed", strconv.FormatInt(seed, 10), "-setup-child")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child output %q: %w", b, err)
	}
	return v, nil
}

// refShare sizes the reference samples: one job's wall time over the
// sample that follows it.
const refShare = 4

// measure is the untraced run behind the end-to-end metrics.
func measure(s spec, seed int64, budget time.Duration) (*result, error) {
	b, d, err := setup(s, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	setups := []float64{d.Seconds()}
	// children runs the set-up children that are due after timed.
	children := func(timed time.Duration) error {
		for childDue(len(setups)-1, timed, budget) {
			v, err := setupChild(s, seed)
			if err != nil {
				return err
			}
			setups = append(setups, v)
		}
		return nil
	}

	// The loop runs whole rounds over the inputs until the timed calls
	// and reference samples add up to the budget; output checks and
	// set-up children are not counted. Whole rounds keep the mix of
	// inputs the same in every run. Each job is followed by a reference
	// sample a quarter of its length, on as many goroutines as the job's
	// engine has workers.
	workers := 1
	if s.parallel {
		workers = b.eng.Workers()
	}
	ref := newReference(workers)
	n := len(b.inputs)
	var t tally
	var timed, jobCPU, jobWall time.Duration
	var alloc uint64
	for k := 0; k < n || timed < budget || k%n != 0; k++ {
		if err := children(timed); err != nil {
			return nil, err
		}
		// Each job starts on a collected heap, so neither its CPU time
		// nor the peak RSS depends on when the garbage of the jobs and
		// checks before it happens to be collected.
		runtime.GC()
		out := b.runJob(context.Background(), k, true)
		t.record(out, os.Stderr)
		w0 := ref.wall
		ref.sample(out.wall / refShare)
		jobCPU += out.cpu
		jobWall += out.wall
		timed += out.wall + ref.wall - w0
		alloc += out.alloc
	}
	if err := children(budget); err != nil {
		return nil, err
	}
	jobs := time.Duration(t.attempted)
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs, mean %.4f s CPU and %.4f s wall per job; %d reference passes, %.1f µs CPU each, %.1f s wall in all\n",
		t.attempted, (jobCPU / jobs).Seconds(), (jobWall / jobs).Seconds(), ref.passes, float64(ref.passCPU())/1e3, ref.wall.Seconds())
	return t.result(map[string]metric{
		"job_cpu_s":        {scaled((jobCPU / jobs).Seconds(), ref.passCPU()), "s"},
		"setup_s":          {scaled(median(setups), ref.passCPU()), "s"},
		"alloc_mb_per_job": {perJobMB(alloc, t.attempted), "MB"},
		"peak_rss_mb":      {peakRSSMB(), "MiB"},
	}), nil
}

// environment records what a result was measured on.
func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
