package fft

import (
	"math"
	"testing"
)

func toComplex64(x []complex128) []complex64 {
	out := make([]complex64, len(x))
	for i, v := range x {
		out[i] = complex64(v)
	}
	return out
}

func toComplex128(x []complex64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex128(v)
	}
	return out
}

// The float32 bounds scale like the float64 ones (tolerance × n) with
// float32's larger rounding unit.

func TestPlan32ForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range kernelSizes {
		x := toComplex64(randComplex(n, int64(n)))
		// The reference transforms the float32-rounded input exactly, so
		// the difference is the kernel's own rounding.
		want := naiveDFT(toComplex128(x))
		NewPlan32(n).Forward(x)
		d := maxDiff(toComplex128(x), want)
		if d > 1e-6*float64(n) {
			t.Errorf("n=%d: max diff vs naive DFT = %g", n, d)
		}
		t.Logf("n=%d: max diff vs naive DFT = %.3g", n, d)
	}
}

func TestPlan32RoundTripIdentity(t *testing.T) {
	for _, n := range kernelSizes {
		p := NewPlan32(n)
		x := toComplex64(randComplex(n, 42))
		y := append([]complex64(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		d := maxDiff(toComplex128(x), toComplex128(y))
		if d > 1e-6*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
		t.Logf("n=%d: round trip error %.3g", n, d)
	}
}

// TestPlan32ZeroInZeroOut is TestZeroInZeroOut for the float32 kernel,
// which the banded BatchPlan2D32 passes rely on.
func TestPlan32ZeroInZeroOut(t *testing.T) {
	for _, n := range kernelSizes {
		p := NewPlan32(n)
		for _, run := range []func([]complex64){p.Forward, p.Inverse} {
			x := make([]complex64, n)
			run(x)
			for i, v := range x {
				if math.Float32bits(real(v)) != 0 || math.Float32bits(imag(v)) != 0 {
					t.Fatalf("n=%d: bin %d of an all-zero transform is %v, want +0", n, i, v)
				}
			}
		}
	}
}

func TestPlan32AllocatesNothing(t *testing.T) {
	p := NewPlan32(128)
	x := toComplex64(randComplex(128, 1))
	for name, run := range map[string]func([]complex64){"Forward": p.Forward, "Inverse": p.Inverse} {
		if a := testing.AllocsPerRun(100, func() { run(x) }); a != 0 {
			t.Errorf("Plan32.%s: %v allocations per call, want 0", name, a)
		}
	}
}

func TestPlan32RejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan32(%d) did not panic", n)
				}
			}()
			NewPlan32(n)
		}()
	}
}

func TestPlan32ForwardRejectsWrongLength(t *testing.T) {
	p := NewPlan32(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex64, 4))
}
