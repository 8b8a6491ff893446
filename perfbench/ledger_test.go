package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lsopc/internal/obs/analyze"
)

// shortIters keeps each workload's jobs short in tests while leaving
// enough iterations for the output checks to hold.
var shortIters = map[string]int{"clips-serial": 10, "chip-tiled": 4}

// TestTracedRunReportsLedger runs the traced run of every workload with
// short jobs: its span file must parse with analyze.Parse, and every
// per-layer metric of BENCHMARK.json must be reported, with a finite
// ledger coverage near 1.
func TestTracedRunReportsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs optimizer jobs")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s.iters = shortIters[s.name]
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			res, err := traced(s, 1, 0, path)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 2 {
				t.Fatalf("result %+v, want 2 correct jobs", res)
			}
			for _, m := range cfg.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
					continue
				}
				if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v, want a finite value in %s", m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(cfg.PerLayer) {
				t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(cfg.PerLayer))
			}
			if c := res.Metrics["ledger.coverage"].Value; c < 0.8 || c > 1.2 {
				t.Errorf("ledger.coverage = %v, want about 1", c)
			}
			for _, name := range []string{"core.iterations", "litho.calls", "fft.batch.calls"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive count", name, res.Metrics[name].Value)
				}
			}

			run, err := analyze.ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if skipped, err := analyze.WriteChromeTrace(io.Discard, f); err != nil || skipped != 0 {
				t.Errorf("chrome export: %d events skipped, err %v", skipped, err)
			}
			for _, phase := range []string{"job", "lsopc.evaluate", "layer.fft.batch", "layer.litho.self", "layer.levelset", "layer.core.self"} {
				if p := run.Phase("span:" + phase); p == nil || p.Count != 1 {
					t.Errorf("span %s: %+v, want one per traced job", phase, p)
				}
			}
		})
	}
}
