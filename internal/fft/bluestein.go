package fft

import (
	"math"

	"lsopc/internal/grid"
)

// Bluestein's algorithm computes the DFT of arbitrary length n as a
// circular convolution of length m ≥ 2n−1 (m a power of two), unlocking
// non-power-of-two grids (e.g. odd-sized clip windows) at ~4× the cost
// of a same-size power-of-two transform. The lithography pipeline itself
// stays on power-of-two grids; this exists for tooling that must match
// external data dimensions exactly.

// BluesteinPlan holds the precomputed chirp and its padded spectrum for
// one length. Immutable after creation; safe for concurrent use except
// for the scratch buffer, so Transform allocates per call.
type BluesteinPlan struct {
	n     int
	m     int
	chirp []complex128 // w[k] = exp(-iπk²/n), k ∈ [0, n)
	bHat  []complex128 // FFT of the padded conjugate-chirp kernel
	plan  *Plan        // power-of-two plan of length m
}

// NewBluesteinPlan builds a plan for any length n ≥ 1.
func NewBluesteinPlan(n int) *BluesteinPlan {
	if n < 1 {
		panic("fft: Bluestein length must be ≥ 1")
	}
	m := grid.NextPow2(2*n - 1)
	p := &BluesteinPlan{n: n, m: m, plan: CachedPlan(m)}

	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the argument small for large k.
		phase := -math.Pi * float64((k*k)%(2*n)) / float64(n)
		s, c := math.Sincos(phase)
		p.chirp[k] = complex(c, s)
	}

	// Kernel b[k] = conj(chirp[|k|]) wrapped circularly into length m.
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		v := complex(real(p.chirp[k]), -imag(p.chirp[k]))
		b[k] = v
		if k > 0 {
			b[m-k] = v
		}
	}
	p.plan.Forward(b)
	p.bHat = b
	return p
}

// N returns the transform length.
func (p *BluesteinPlan) N() int { return p.n }

// Forward computes the unnormalised DFT of x (length n) in place.
func (p *BluesteinPlan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the inverse DFT including the 1/n scale.
func (p *BluesteinPlan) Inverse(x []complex128) {
	// IDFT(x) = conj(DFT(conj(x)))/n.
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	p.transform(x, false)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
}

func (p *BluesteinPlan) transform(x []complex128, _ bool) {
	if len(x) != p.n {
		panic("fft: Bluestein input length mismatch")
	}
	a := make([]complex128, p.m)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	p.plan.Forward(a)
	for i := range a {
		a[i] *= p.bHat[i]
	}
	p.plan.Inverse(a)
	for k := 0; k < p.n; k++ {
		x[k] = a[k] * p.chirp[k]
	}
}
