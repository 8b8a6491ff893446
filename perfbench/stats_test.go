package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestMedianQuartilesMatchPython pins the statistics to the values of
// Python's statistics.median and statistics.quantiles(xs, n=4), which the
// benchmark's acceptance check uses.
func TestMedianQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{0.5, 0.7, 0.9, 1.1, 1.3, 2.0, 0.6, 0.8, 1.0, 1.2}, 0.95, 0.6749999999999999, 1.2249999999999999},
		{[]float64{5, 5}, 5, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); !near(m, tc.med) || !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4}), (3.75-1.25)/2.5; !near(got, want) {
		t.Errorf("spread %v, want %v", got, want)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// The input must not be reordered.
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestPerJobMB(t *testing.T) {
	if got := perJobMB(30_000_000, 3); got != 10 {
		t.Errorf("perJobMB = %v, want 10", got)
	}
	if !math.IsNaN(perJobMB(1, 0)) {
		t.Error("perJobMB with no jobs should be NaN")
	}
}

func TestCoverage(t *testing.T) {
	got := coverage(100*time.Millisecond, 70*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond)
	if !near(got, 0.95) {
		t.Errorf("coverage = %v, want 0.95", got)
	}
}

func TestTilingOverhead(t *testing.T) {
	durs := []time.Duration{400 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond}
	// 1 s of tile work on 2 workers explains 500 ms of a 650 ms chip.
	if got := tilingOverhead(650*time.Millisecond, durs, 2); got != 150*time.Millisecond {
		t.Errorf("overhead = %v, want 150ms", got)
	}
	if got := tilingOverhead(time.Second, durs, 0); got != 0 {
		t.Errorf("overhead with workers clamped to 1 = %v, want 0", got)
	}
}

func TestCornerConcurrency(t *testing.T) {
	for workers, want := range map[int]float64{1: 1, 2: 1.5, 3: 3, 8: 3} {
		if got := cornerConcurrency(workers); got != want {
			t.Errorf("cornerConcurrency(%d) = %v, want %v", workers, got, want)
		}
	}
}

func TestSteadinessGrades(t *testing.T) {
	for _, tc := range []struct {
		sp, bound float64
		want      string
	}{
		{0.05, 0.2, "ok"},
		{0.1, 0.2, "wide"},
		{0.3, 0.2, "unsteady"},
	} {
		if got := steadiness(tc.sp, tc.bound); got != tc.want {
			t.Errorf("steadiness(%v, %v) = %s, want %s", tc.sp, tc.bound, got, tc.want)
		}
	}
}

func TestChildDueSpreadsSetUps(t *testing.T) {
	budget := time.Duration(setupSamples-1) * time.Second
	for _, tc := range []struct {
		i     int
		timed time.Duration
		want  bool
	}{
		{0, 0, true},
		{1, 999 * time.Millisecond, false},
		{1, time.Second, true},
		{setupSamples - 2, budget - time.Second, true},
		{setupSamples - 1, 10 * budget, false}, // all children have run
	} {
		if got := childDue(tc.i, tc.timed, budget); got != tc.want {
			t.Errorf("childDue(%d, %v) = %v, want %v", tc.i, tc.timed, got, tc.want)
		}
	}
}

func TestScaled(t *testing.T) {
	// A host twice as slow as the nominal one halves the time.
	if got := scaled(3, 2*refPassNominal); !near(got, 1.5) {
		t.Errorf("scaled = %v, want 1.5", got)
	}
}

// TestReferenceSample: a sample runs at least one pass on every
// goroutine and counts them all, and every pass computes the same sum.
func TestReferenceSample(t *testing.T) {
	r := newReference(2)
	r.sample(0)
	if r.passes != 2 {
		t.Errorf("passes = %d after an empty sample on 2 goroutines, want 2", r.passes)
	}
	r.sample(20 * time.Millisecond)
	if r.passes < 4 || r.wall < 20*time.Millisecond {
		t.Errorf("passes = %d, wall %v after a 20ms sample", r.passes, r.wall)
	}
	if r.cpu <= 0 || r.passCPU() != r.cpu/time.Duration(r.passes) {
		t.Errorf("cpu %v, per pass %v", r.cpu, r.passCPU())
	}
	one := newRefKernel().pass()
	if one <= 0 || math.Abs(r.sum-float64(r.passes)*one) > 1e-9*r.sum {
		t.Errorf("sum of %d passes = %v, one pass = %v", r.passes, r.sum, one)
	}
}
