package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// config is the part of BENCHMARK.json the steadiness report reads.
type config struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain is the steadiness report: it runs the benchmark -runs times
// per workload, each with the next seed, and prints for every metric its
// median, quartiles and spread (interquartile distance over median)
// against the metric's bound in BENCHMARK.json. A spread within a third
// of its bound is "ok", within the bound "wide", beyond it "unsteady".
// It exits 1 when a run fails or any bounded metric is unsteady.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 10, "runs per workload")
	first := fs.Int64("seed", 1, "seed of the first run; later runs take the next seeds")
	only := fs.String("workload", "", "comma-separated workloads (default: all in the config)")
	trace := fs.Int("trace", 0, "trace flag passed to every run")
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark configuration")
	verbose := fs.Bool("v", false, "also print every run's value of each metric, in seed order")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 2
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range cfg.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 2
	}

	status := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian\tq1\tq3\tspread\tbound\tverdict\truns")
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < *runs; i++ {
			seed := *first + int64(i)
			res, err := runOnce(self, name, seed, cfg.RunSeconds, *trace)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", name, seed, err)
				status = 1
				continue
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := values[k]
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			bound, bounded := bounds[k]
			verdict := "-"
			if bounded {
				verdict = steadiness(sp, bound)
				if verdict == "unsteady" {
					status = 1
				}
			}
			var runs string
			if *verbose {
				runs = fmt.Sprintf("%.4g", xs)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%g\t%s\t%s\n",
				name, k, units[k], len(xs), median(xs), q1, q3, sp, bound, verdict, runs)
		}
		tw.Flush()
	}
	tw.Flush()
	return status
}

// steadiness grades a metric's spread against its bound.
func steadiness(sp, bound float64) string {
	switch {
	case sp <= bound/3:
		return "ok"
	case sp <= bound:
		return "wide"
	default:
		return "unsteady"
	}
}

// runOnce runs the benchmark binary once and parses its result line.
func runOnce(self, workload string, seed int64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w (run: %v)", err, runErr)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("%d of %d jobs failed (run: %v)", res.Failed, res.Attempted, runErr)
	}
	return &res, nil
}
