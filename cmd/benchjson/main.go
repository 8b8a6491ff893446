// Command benchjson runs the performance benchmarks behind the batched
// FFT / concurrent-corner work and merges the results into a JSON
// artefact (BENCH_batchfft.json by default), keyed by a run label so
// before/after measurements live side by side:
//
//	go run ./cmd/benchjson -label after
//	go run ./cmd/benchjson -label seed -o BENCH_batchfft.json
//	go run ./cmd/benchjson -sessions -label after
//	go run ./cmd/benchjson -tiled        # full-chip monolithic vs tiled
//
// Each benchmark is executed with the standard testing.Benchmark driver,
// so ns/op, B/op, and allocs/op match `go test -bench` output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"lsopc"
	"lsopc/internal/benchfmt"
	"lsopc/internal/engine"
	"lsopc/internal/experiments"
	"lsopc/internal/fft"
	"lsopc/internal/grid"
	"lsopc/internal/litho"
)

// Every leg writes the one internal/benchfmt schema (File/Run/
// Measurement) through newRun, measure and save, so cmd/benchdiff
// gates exactly what this command writes.

func main() {
	out := flag.String("o", "", "output JSON file (merged in place)")
	label := flag.String("label", "", "run label, e.g. seed or after (required)")
	note := flag.String("note", "", "free-form note stored with the run")
	filter := flag.String("bench", "", "substring filter on benchmark names")
	sessions := flag.Bool("sessions", false, "measure concurrent-session throughput instead (BENCH_sessions.json)")
	multires := flag.Bool("multires", false, "measure Table II per-case runtime, full-res float64 vs coarse-to-fine float32 (BENCH_multires.json)")
	tiled := flag.Bool("tiled", false, "measure full-chip runtime, monolithic window vs tiled overlap-halo optimization (BENCH_tiled.json)")
	tracePath := flag.String("tracefile", "", "write a structured JSONL event trace of the sessions sweep to this file")
	recorder := flag.Bool("recorder", false, "tee a flight recorder into the sweep's trace path to measure its emit overhead (sessions mode)")
	flag.Parse()
	if *multires {
		// Labels are fixed ("baseline"/"multires"): the artefact compares
		// the two variants against each other, not runs over time.
		if *out == "" {
			*out = "BENCH_multires.json"
		}
		multiresMain(*out, *note, *filter)
		return
	}
	if *tiled {
		// Labels are fixed ("monolithic"/"tiled") for the same reason.
		if *out == "" {
			*out = "BENCH_tiled.json"
		}
		tiledMain(*out, *note, *filter)
		return
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}
	if *sessions {
		if *out == "" {
			*out = "BENCH_sessions.json"
		}
		sessionsMain(*out, *label, *note, *filter, *tracePath, *recorder)
		return
	}
	if *out == "" {
		*out = "BENCH_batchfft.json"
	}

	run := newRun(*note)
	for _, b := range benchmarks() {
		if !strings.Contains(b.name, *filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-28s ", b.name)
		run.Benchmarks[b.name] = measure(b.fn)
	}
	save(*out, "Benchmarks for the batched kernel-parallel FFT execution and concurrent process-corner simulation. Labels: seed = before the change, after = with batched/banded FFT paths.",
		map[string]benchfmt.Run{*label: run})
}

// newRun returns an empty run stamped with the host's header.
func newRun(note string) benchfmt.Run {
	return benchfmt.Run{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note:       note,
		Benchmarks: map[string]benchfmt.Measurement{},
	}
}

// measure runs fn under the standard testing.Benchmark driver, so
// ns/op, B/op and allocs/op match `go test -bench -benchmem`, and
// prints the result. testing.Benchmark discards b.Fatal's message and
// returns a zero result, so benchmark bodies here report errors with
// fatal instead.
func measure(fn func(b *testing.B)) benchfmt.Measurement {
	r := testing.Benchmark(fn)
	m := benchfmt.Measurement{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
	}
	fmt.Fprintf(os.Stderr, "%12d ns/op %10d B/op %7d allocs/op (n=%d)\n",
		m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.Iterations)
	return m
}

// save merges the labelled runs into the artefact at out. A run the
// -bench filter left empty is refused rather than recorded.
func save(out, description string, runs map[string]benchfmt.Run) {
	labels := make([]string, 0, len(runs))
	for label, run := range runs {
		if len(run.Benchmarks) == 0 {
			fatal(fmt.Errorf("run %q measured no benchmarks (check -bench)", label))
		}
		labels = append(labels, label)
	}
	if err := benchfmt.Merge(out, description, runs); err != nil {
		fatal(err)
	}
	sort.Strings(labels)
	fmt.Fprintf(os.Stderr, "wrote %s (labels %s)\n", out, strings.Join(labels, "+"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchmarks mirrors the top-level bench_test.go definitions that the
// acceptance numbers are quoted from, plus FFT micro-benchmarks for the
// batched plan itself.
func benchmarks() []namedBench {
	return []namedBench{
		{"Table2PerCase/cpu", benchTable2(lsopc.CPUEngine())},
		{"Table2PerCase/gpu", benchTable2(lsopc.GPUEngine())},
		{"AerialExact", benchAerial(false)},
		{"AerialFused", benchAerial(true)},
		{"Gradient", benchGradient},
		{"BatchFFT/forward8x128", benchBatchForward},
		{"BatchFFT/inverseBanded8x128", benchBatchInverseBanded},
	}
}

func benchTable2(eng *lsopc.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.EngineRuntime(lsopc.PresetTest, "B4", eng, 10); err != nil {
				fatal(err)
			}
		}
	}
}

func benchPipeline() (*lsopc.Pipeline, *lsopc.Field, *grid.CField) {
	pipe, err := lsopc.NewPipeline(lsopc.PresetTest, lsopc.GPUEngine())
	if err != nil {
		fatal(err)
	}
	target, err := pipe.Target(lsopc.Benchmark("B4"))
	if err != nil {
		fatal(err)
	}
	return pipe, target, pipe.Simulator().MaskSpectrum(target)
}

func benchAerial(fused bool) func(b *testing.B) {
	return func(b *testing.B) {
		pipe, target, spec := benchPipeline()
		sim := pipe.Simulator()
		out := grid.NewField(target.W, target.H)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fused {
				sim.AerialFast(out, spec, litho.Nominal)
			} else {
				sim.Aerial(out, spec, litho.Nominal)
			}
		}
	}
}

func benchGradient(b *testing.B) {
	pipe, target, spec := benchPipeline()
	sim := pipe.Simulator()
	n := sim.GridSize()
	grad := grid.NewField(n, n)
	imgs := litho.NewCornerImages(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grad.Zero()
		sim.ForwardAndGradient(grad, spec, litho.Nominal, target, imgs, 1)
	}
}

const (
	fftBatch = 8
	fftSize  = 128
	fftBand  = 28 // matches the kernel box radius at PresetTest scale
)

func newFFTBatch() []*grid.CField {
	fields := make([]*grid.CField, fftBatch)
	for i := range fields {
		f := grid.NewCField(fftSize, fftSize)
		for j := range f.Data {
			f.Data[j] = complex(float64(j%17)*0.25, float64(j%13)*-0.5)
		}
		fields[i] = f
	}
	return fields
}

func benchBatchForward(b *testing.B) {
	p := fft.NewBatchPlan2D(fftSize, fftSize, engine.New("bench", runtime.NumCPU()))
	fields := newFFTBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchForward(fields)
	}
}

func benchBatchInverseBanded(b *testing.B) {
	p := fft.NewBatchPlan2D(fftSize, fftSize, engine.New("bench", runtime.NumCPU()))
	fields := newFFTBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BatchInverseBanded(fields, fftBand)
	}
}
