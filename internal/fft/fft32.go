package fft

import (
	"fmt"
	"sync"

	"lsopc/internal/grid"
)

// Plan32 is the complex64 twin of Plan: the same radix-4 network and
// stage layout, with twiddles computed in float64 and rounded once to
// float32 at construction. It backs the opt-in reduced-precision
// forward-model path, where the field batches dominate memory bandwidth
// and 32-bit storage halves the bytes every butterfly moves. A Plan32 is
// immutable after creation and safe for concurrent use.
//
// The kernels are hand-written mirrors of Plan's: Go offers no
// real/imag/complex on a complex type parameter, so only the
// twiddle-free permute and radix-2 helpers are shared.
type Plan32 struct {
	n     int
	swaps [][2]int32
	first stageKind
	fwd   [][]twiddle32 // (wᵏ, w²ᵏ, w³ᵏ), w = e^{-2πi/4m}, per radix-4 stage
	inv   [][]twiddle32 // the same with w = e^{+2πi/4m}
	scale float32       // 1/n, folded into the last inverse stage
}

// twiddle32 is the complex64 twiddle triple of one butterfly.
type twiddle32 struct{ w1, w2, w3 complex64 }

// NewPlan32 creates a float32 transform plan for length n. It panics
// unless n is a positive power of two.
func NewPlan32(n int) *Plan32 {
	if !grid.IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	first, spans := layout(n)
	p := &Plan32{n: n, swaps: bitReversalSwaps(n), first: first, scale: 1 / float32(n)}
	for _, m := range spans {
		fwd, inv := stageTwiddles(m, lastScale(m, n))
		p.fwd = append(p.fwd, roundTwiddles(fwd))
		p.inv = append(p.inv, roundTwiddles(inv))
	}
	return p
}

// roundTwiddles rounds a float64 twiddle table to complex64.
func roundTwiddles(tw []twiddle) []twiddle32 {
	out := make([]twiddle32, len(tw))
	for k, w := range tw {
		out[k] = twiddle32{complex64(w.w1), complex64(w.w2), complex64(w.w3)}
	}
	return out
}

// N returns the transform length.
func (p *Plan32) N() int { return p.n }

// Forward computes the in-place unnormalised DFT of x.
// It panics if len(x) differs from the plan length.
func (p *Plan32) Forward(x []complex64) {
	checkLen(len(x), p.n)
	permute(x, p.swaps)
	switch p.first {
	case firstRadix2:
		radix2(x)
	case firstRadix4:
		first4Fwd32(x)
	}
	for _, tw := range p.fwd {
		stage4Fwd32(x, tw)
	}
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalisation, so Inverse∘Forward is the identity up to float32
// rounding. The 1/n is applied by the last stage (see Plan.Inverse).
func (p *Plan32) Inverse(x []complex64) {
	checkLen(len(x), p.n)
	permute(x, p.swaps)
	last := len(p.inv) - 1
	switch p.first {
	case firstRadix2:
		if last < 0 { // n = 2
			radix2Scaled(x, complex(p.scale, 0))
			return
		}
		radix2(x)
	case firstRadix4:
		first4Inv32(x)
	}
	if last < 0 {
		return
	}
	for _, tw := range p.inv[:last] {
		stage4Inv32(x, tw)
	}
	stage4InvScaled32(x, p.inv[last], p.scale)
}

// first4Fwd32 mirrors first4Fwd.
func first4Fwd32(x []complex64) {
	for i := 0; i+3 < len(x); i += 4 {
		q := x[i : i+4 : i+4]
		t0, t1 := q[0]+q[1], q[0]-q[1]
		t2, t3 := q[2]+q[3], q[2]-q[3]
		q[0], q[2] = t0+t2, t0-t2
		q[1] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
		q[3] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
	}
}

// first4Inv32 mirrors first4Inv.
func first4Inv32(x []complex64) {
	for i := 0; i+3 < len(x); i += 4 {
		q := x[i : i+4 : i+4]
		t0, t1 := q[0]+q[1], q[0]-q[1]
		t2, t3 := q[2]+q[3], q[2]-q[3]
		q[0], q[2] = t0+t2, t0-t2
		q[1] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
		q[3] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
	}
}

// stage4Fwd32 mirrors stage4Fwd.
func stage4Fwd32(x []complex64, tw []twiddle32) {
	m := len(tw)
	for g := 0; g < len(x); g += 4 * m {
		x0, x1, x2, x3 := x[g:][:m], x[g+m:][:m], x[g+2*m:][:m], x[g+3*m:][:m]
		for k := range tw {
			w := &tw[k]
			a, c := x0[k], w.w2*x1[k]
			b, d := w.w1*x2[k], w.w3*x3[k]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			x0[k], x2[k] = t0+t2, t0-t2
			x1[k] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
			x3[k] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
		}
	}
}

// stage4Inv32 mirrors stage4Inv.
func stage4Inv32(x []complex64, tw []twiddle32) {
	m := len(tw)
	for g := 0; g < len(x); g += 4 * m {
		x0, x1, x2, x3 := x[g:][:m], x[g+m:][:m], x[g+2*m:][:m], x[g+3*m:][:m]
		for k := range tw {
			w := &tw[k]
			a, c := x0[k], w.w2*x1[k]
			b, d := w.w1*x2[k], w.w3*x3[k]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			x0[k], x2[k] = t0+t2, t0-t2
			x1[k] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
			x3[k] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
		}
	}
}

// stage4InvScaled32 mirrors stage4InvScaled.
func stage4InvScaled32(x []complex64, tw []twiddle32, s float32) {
	m := len(tw)
	for g := 0; g < len(x); g += 4 * m {
		x0, x1, x2, x3 := x[g:][:m], x[g+m:][:m], x[g+2*m:][:m], x[g+3*m:][:m]
		for k := range tw {
			w := &tw[k]
			a, c := complex(real(x0[k])*s, imag(x0[k])*s), w.w2*x1[k]
			b, d := w.w1*x2[k], w.w3*x3[k]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			x0[k], x2[k] = t0+t2, t0-t2
			x1[k] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
			x3[k] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
		}
	}
}

// planCache32 is the shared float32 plan cache, keyed by length.
var planCache32 = struct {
	sync.RWMutex
	m map[int]*Plan32
}{m: make(map[int]*Plan32)}

// CachedPlan32 returns a shared float32 plan for length n, creating it
// on first use. Safe for concurrent use (see CachedPlan).
func CachedPlan32(n int) *Plan32 {
	planCache32.RLock()
	p := planCache32.m[n]
	planCache32.RUnlock()
	if p != nil {
		mPlanHits.Inc()
		return p
	}
	planCache32.Lock()
	defer planCache32.Unlock()
	if p, ok := planCache32.m[n]; ok {
		mPlanHits.Inc()
		return p
	}
	p = NewPlan32(n)
	planCache32.m[n] = p
	mPlanMisses.Inc()
	return p
}
