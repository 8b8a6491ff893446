package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), as Python's statistics.median does. It
// returns NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so a spread computed here matches one computed there. With
// fewer than two values both quartiles are that value (NaN when empty).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// perJobMB converts the bytes the timed calls allocated into megabytes
// (10⁶ bytes) per job.
func perJobMB(bytes uint64, jobs int) float64 {
	if jobs <= 0 {
		return math.NaN()
	}
	return float64(bytes) / 1e6 / float64(jobs)
}

// coverage is the sum of layer self-times over the optimize time they
// should account for.
func coverage(optimize time.Duration, selfTimes ...time.Duration) float64 {
	var sum time.Duration
	for _, d := range selfTimes {
		sum += d
	}
	return float64(sum) / float64(optimize)
}

// tilingOverhead is the chip wall time the tile work does not explain:
// wall − Σ tile durations / workers, i.e. decomposition, blending, seam
// checks and the idle tail of unevenly loaded workers.
func tilingOverhead(wall time.Duration, tileDurs []time.Duration, workers int) time.Duration {
	var sum time.Duration
	for _, d := range tileDurs {
		sum += d
	}
	return wall - sum/time.Duration(max(workers, 1))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durations converts float nanoseconds to durations.
func nsDur(ns float64) time.Duration { return time.Duration(math.Round(ns)) }
