package fft

import (
	"math/cmplx"
	"testing"
)

func TestBluesteinMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 12, 17, 100, 129} {
		x := randComplex(n, int64(n)*7)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewBluesteinPlan(n).Forward(got)
		if d := maxDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestBluesteinRoundTrip(t *testing.T) {
	for _, n := range []int{3, 17, 50, 255} {
		p := NewBluesteinPlan(n)
		x := randComplex(n, 99)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxDiff(x, y); d > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
	}
}

func TestBluesteinMatchesRadix2OnPow2(t *testing.T) {
	const n = 64
	x := randComplex(n, 5)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	NewPlan(n).Forward(a)
	NewBluesteinPlan(n).Forward(b)
	if d := maxDiff(a, b); d > 1e-9*float64(n) {
		t.Fatalf("Bluestein disagrees with the power-of-two plan: %g", d)
	}
}

func TestBluesteinImpulse(t *testing.T) {
	const n = 9
	x := make([]complex128, n)
	x[0] = 1
	NewBluesteinPlan(n).Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-10 {
			t.Fatalf("impulse spectrum at %d = %v", k, v)
		}
	}
}

func TestBluesteinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero length accepted")
		}
	}()
	NewBluesteinPlan(0)
}

func TestBluesteinWrongLengthPanics(t *testing.T) {
	p := NewBluesteinPlan(5)
	if p.N() != 5 {
		t.Fatalf("N = %d", p.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong length accepted")
		}
	}()
	p.Forward(make([]complex128, 4))
}
