package benchfmt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func mkFile(runs map[string]map[string]int64) *File {
	f := &File{Runs: map[string]Run{}}
	for label, benches := range runs {
		r := Run{Benchmarks: map[string]Measurement{}}
		for name, ns := range benches {
			r.Benchmarks[name] = Measurement{NsPerOp: ns, BytesPerOp: ns / 10, AllocsPerOp: 3, Iterations: 100}
		}
		f.Runs[label] = r
	}
	return f
}

func TestCompareIdenticalPasses(t *testing.T) {
	f := mkFile(map[string]map[string]int64{
		"r1": {"A": 1000, "B": 2000},
		"r2": {"A": 1100, "B": 1900},
	})
	res, err := Compare(f, f, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatalf("identical files: %d regressions: %+v", res.Regressions, res.Deltas)
	}
	if res.Metric != MetricNsPerOp || res.Stat != StatMin || res.Threshold != 0.10 {
		t.Fatalf("defaults not applied: %+v", res)
	}
	// min-of-N: A aggregates to 1000, B to 1900.
	for _, d := range res.Deltas {
		want := map[string]float64{"A": 1000, "B": 1900}[d.Name]
		if d.Old != want || d.New != want {
			t.Fatalf("delta %s = %+v, want both sides %g", d.Name, d, want)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{"r": {"A": 1000, "B": 2000}})
	newF := mkFile(map[string]map[string]int64{"r": {"A": 1250, "B": 2050}})
	res, err := Compare(oldF, newF, CompareOptions{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1: %+v", res.Regressions, res.Deltas)
	}
	for _, d := range res.Deltas {
		if d.Name == "A" && !d.Regression {
			t.Fatalf("A (+25%%) not flagged: %+v", d)
		}
		if d.Name == "B" && d.Regression {
			t.Fatalf("B (+2.5%%) flagged: %+v", d)
		}
	}
}

func TestCompareMinDeltaFloor(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{"r": {"tiny": 100}})
	newF := mkFile(map[string]map[string]int64{"r": {"tiny": 150}})
	// +50% but only 50 ns — below the absolute floor.
	res, err := Compare(oldF, newF, CompareOptions{MinDelta: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatalf("sub-floor delta flagged: %+v", res.Deltas)
	}
}

func TestCompareMedianAndLabels(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{
		"r1": {"A": 1000},
		"r2": {"A": 1200},
		"r3": {"A": 5000}, // outlier the median ignores
	})
	newF := mkFile(map[string]map[string]int64{"s1": {"A": 1210}})
	res, err := Compare(oldF, newF, CompareOptions{Stat: StatMedian})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Deltas[0]; d.Old != 1200 || d.Regression {
		t.Fatalf("median delta = %+v, want old 1200, no regression", d)
	}
	// Selecting only the outlier run makes the new side look fast.
	res, err = Compare(oldF, newF, CompareOptions{OldLabels: []string{"r3"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Deltas[0]; d.Old != 5000 {
		t.Fatalf("label-selected old = %g, want 5000", d.Old)
	}
	if _, err := Compare(oldF, newF, CompareOptions{OldLabels: []string{"nope"}}); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestCompareOneSidedBenchmarks(t *testing.T) {
	oldF := mkFile(map[string]map[string]int64{"r": {"A": 1000, "gone": 500}})
	newF := mkFile(map[string]map[string]int64{"r": {"A": 1000, "added": 700}})
	res, err := Compare(oldF, newF, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 0 {
		t.Fatalf("one-sided benchmarks counted as regressions: %+v", res.Deltas)
	}
	seen := map[string]Delta{}
	for _, d := range res.Deltas {
		seen[d.Name] = d
	}
	if !seen["gone"].OnlyOld || !seen["added"].OnlyNew {
		t.Fatalf("one-sided flags wrong: %+v", res.Deltas)
	}
}

func TestInflateAndRoundTrip(t *testing.T) {
	f := mkFile(map[string]map[string]int64{"r": {"A": 1000}})
	slow := f.Inflate(1.25)
	if got := slow.Runs["r"].Benchmarks["A"].NsPerOp; got != 1250 {
		t.Fatalf("inflated ns = %d, want 1250", got)
	}
	if f.Runs["r"].Benchmarks["A"].NsPerOp != 1000 {
		t.Fatal("Inflate mutated the original")
	}
	res, err := Compare(f, slow, CompareOptions{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressions != 1 {
		t.Fatalf("inflated copy not flagged: %+v", res.Deltas)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs["r"].Benchmarks["A"] != f.Runs["r"].Benchmarks["A"] {
		t.Fatalf("round trip lost data: %+v", got.Runs["r"])
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMeasurementValue(t *testing.T) {
	m := Measurement{NsPerOp: 10, BytesPerOp: 20, AllocsPerOp: 30}
	for metric, want := range map[string]float64{
		MetricNsPerOp: 10, MetricBytesPerOp: 20, MetricAllocsPerOp: 30,
	} {
		v, err := m.Value(metric)
		if err != nil || v != want {
			t.Fatalf("Value(%s) = %g, %v", metric, v, err)
		}
	}
	if _, err := m.Value("walrus"); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	a := mkFile(map[string]map[string]int64{"a": {"A": 1000}}).Runs["a"]
	b := mkFile(map[string]map[string]int64{"b": {"A": 2000}}).Runs["b"]
	if err := Merge(path, "desc", map[string]Run{"a": a}); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, "ignored", map[string]Run{"b": b}); err != nil {
		t.Fatal(err)
	}
	a2 := mkFile(map[string]map[string]int64{"a": {"A": 900}}).Runs["a"]
	if err := Merge(path, "ignored", map[string]Run{"a": a2}); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Description != "desc" || len(f.Runs) != 2 {
		t.Fatalf("merged file: description %q, labels %v", f.Description, f.Labels())
	}
	if got := f.Runs["a"].Benchmarks["A"].NsPerOp; got != 900 {
		t.Fatalf("label a = %d ns, want the replacement 900", got)
	}
	if got := f.Runs["b"].Benchmarks["A"].NsPerOp; got != 2000 {
		t.Fatalf("label b = %d ns, want 2000 kept", got)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	junk := []byte("{not json")
	if err := os.WriteFile(bad, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(bad, "desc", map[string]Run{"a": a}); err == nil {
		t.Fatal("invalid existing file accepted")
	}
	if got, _ := os.ReadFile(bad); !bytes.Equal(got, junk) {
		t.Fatalf("invalid existing file overwritten: %q", got)
	}
}

// TestCommittedArtefactsLoad: every BENCH_*.json at the repository root
// is in this package's schema, so benchdiff can gate it.
func TestCommittedArtefactsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json artefacts found")
	}
	for _, path := range paths {
		f, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(f.Runs) == 0 {
			t.Errorf("%s: no runs", path)
		}
		for label, run := range f.Runs {
			if len(run.Benchmarks) == 0 {
				t.Errorf("%s: run %q has no benchmarks", path, label)
			}
		}
	}
}
