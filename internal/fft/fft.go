// Package fft implements the fast Fourier transforms that replace cuFFT
// in the paper's pipeline: a radix-4 complex FFT in float64 and float32
// with precomputed twiddle/bit-reversal plans, a 2-D transform
// parallelised over an engine's workers, batched and banded 2-D
// transforms over kernel stacks, and frequency-domain convolution
// helpers.
//
// Plan sizes must be powers of two, and NewPlan rejects other sizes
// loudly: the lithography pipeline always runs on power-of-two grids
// (the ICCAD 2013 clips are 2048×2048 at 1 nm/px). Tooling that must
// match other lengths uses the Bluestein transform (NewBluesteinPlan),
// built on a power-of-two Plan.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// Plan-cache metrics in the default registry. Lookups happen at bank
// and session construction, never in the per-iteration hot path.
var (
	mPlanHits   = obs.Default.Counter("fft.plan_cache.hits")
	mPlanMisses = obs.Default.Counter("fft.plan_cache.misses")
)

// Plan holds the precomputed tables for 1-D transforms of a fixed
// power-of-two length. A Plan is immutable after creation and safe for
// concurrent use.
//
// The kernel is a radix-4 decimation-in-time network over bit-reversed
// input. A twiddle-free first stage (radix-2 when log₂n is odd, radix-4
// when it is even) is followed by radix-4 stages of span m = 2, 8, 32, …
// or 4, 16, 64, …, each combining four length-m sub-transforms into one
// of length 4m with three complex multiplies per butterfly.
type Plan struct {
	n     int
	swaps [][2]int32  // bit-reversal transpositions (i, j), i < j
	first stageKind   // the twiddle-free first stage
	fwd   [][]twiddle // per radix-4 stage: (wᵏ, w²ᵏ, w³ᵏ), w = e^{-2πi/4m}, k ∈ [0, m)
	inv   [][]twiddle // the same with w = e^{+2πi/4m}
	scale float64     // 1/n, folded into the last inverse stage
}

// twiddle is one butterfly's twiddle factors (wᵏ, w²ᵏ, w³ᵏ), stored
// together so every stage reads its table contiguously.
type twiddle struct{ w1, w2, w3 complex128 }

// stageKind selects the twiddle-free first stage of a plan.
type stageKind uint8

const (
	firstNone   stageKind = iota // n ≤ 4: every stage is a twiddle stage
	firstRadix2                  // log₂n odd
	firstRadix4                  // log₂n even, n ≥ 16
)

// layout returns the first-stage kind and the spans m of the radix-4
// twiddle stages that follow it for a length-n transform (n a power of
// two). n = 4 runs its single stage as a span-1 twiddle stage so the
// inverse can fold its scale into it.
func layout(n int) (stageKind, []int) {
	first, m := firstNone, 1
	switch {
	case n == 1:
		return firstNone, nil
	case bits.TrailingZeros(uint(n))%2 == 1:
		first, m = firstRadix2, 2
	case n >= 16:
		first, m = firstRadix4, 4
	}
	var spans []int
	for ; m < n; m *= 4 {
		spans = append(spans, m)
	}
	return first, spans
}

// bitReversalSwaps lists the transpositions (i, j), i < j, that put a
// length-n vector into bit-reversed order.
func bitReversalSwaps(n int) [][2]int32 {
	shift := 32 - bits.TrailingZeros(uint(n))
	var swaps [][2]int32
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse32(uint32(i)) >> shift); i < j {
			swaps = append(swaps, [2]int32{int32(i), int32(j)})
		}
	}
	return swaps
}

// stageTwiddles returns the forward and inverse twiddle tables of a
// span-m radix-4 stage: (wᵏ, w²ᵏ, w³ᵏ) for k ∈ [0, m), w = e^{∓2πi/4m},
// with the inverse table multiplied by invScale.
func stageTwiddles(m int, invScale float64) (fwd, inv []twiddle) {
	fwd, inv = make([]twiddle, m), make([]twiddle, m)
	for k := range fwd {
		c1, s1 := quarterTurns(k, m)
		c2, s2 := quarterTurns(2*k, m)
		c3, s3 := quarterTurns(3*k, m)
		fwd[k] = twiddle{complex(c1, -s1), complex(c2, -s2), complex(c3, -s3)}
		inv[k] = twiddle{
			complex(c1*invScale, s1*invScale),
			complex(c2*invScale, s2*invScale),
			complex(c3*invScale, s3*invScale),
		}
	}
	return fwd, inv
}

// quarterTurns returns cos θ and sin θ for θ = (π/2)·r/m, r ∈ [0, 3m).
// Only angles in [0, π/4] reach math.Sincos; the rest follow by
// symmetry, so multiples of π/4 come out exactly symmetric and multiples
// of π/2 exactly ±1 and 0.
func quarterTurns(r, m int) (c, s float64) {
	q, rem := r/m, r%m
	if 2*rem <= m {
		s, c = math.Sincos(math.Pi / 2 * float64(rem) / float64(m))
	} else {
		c, s = math.Sincos(math.Pi / 2 * float64(m-rem) / float64(m))
	}
	switch q {
	case 1:
		c, s = -s, c
	case 2:
		c, s = -c, -s
	}
	return c, s
}

// lastScale is the factor folded into the inverse twiddles of the
// span-m stage of a length-n plan: 1/n for the last stage, 1 otherwise.
// 1/n is a power of two, so barring underflow the folded scale rounds
// exactly like a separate scaling pass.
func lastScale(m, n int) float64 {
	if 4*m == n {
		return 1 / float64(n)
	}
	return 1
}

// NewPlan creates a transform plan for length n. It panics unless n is a
// positive power of two.
func NewPlan(n int) *Plan {
	if !grid.IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	first, spans := layout(n)
	p := &Plan{n: n, swaps: bitReversalSwaps(n), first: first, scale: 1 / float64(n)}
	for _, m := range spans {
		fwd, inv := stageTwiddles(m, lastScale(m, n))
		p.fwd = append(p.fwd, fwd)
		p.inv = append(p.inv, inv)
	}
	return p
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place unnormalised DFT of x.
// It panics if len(x) differs from the plan length.
func (p *Plan) Forward(x []complex128) {
	checkLen(len(x), p.n)
	permute(x, p.swaps)
	switch p.first {
	case firstRadix2:
		radix2(x)
	case firstRadix4:
		first4Fwd(x)
	}
	for _, tw := range p.fwd {
		stage4Fwd(x, tw)
	}
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalisation, so Inverse∘Forward is the identity. The 1/n is applied
// by the last stage as a real scale, so there is no separate pass.
func (p *Plan) Inverse(x []complex128) {
	checkLen(len(x), p.n)
	permute(x, p.swaps)
	last := len(p.inv) - 1
	switch p.first {
	case firstRadix2:
		if last < 0 { // n = 2: the first stage is also the last
			radix2Scaled(x, complex(p.scale, 0))
			return
		}
		radix2(x)
	case firstRadix4:
		first4Inv(x)
	}
	if last < 0 {
		return
	}
	for _, tw := range p.inv[:last] {
		stage4Inv(x, tw)
	}
	stage4InvScaled(x, p.inv[last], p.scale)
}

func checkLen(got, n int) {
	if got != n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", got, n))
	}
}

// permute applies the bit-reversal transpositions to x.
func permute[T complex64 | complex128](x []T, swaps [][2]int32) {
	for _, s := range swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
}

// radix2 is the twiddle-free radix-2 first stage: length-2 DFTs of
// adjacent pairs. It is the same in both directions.
func radix2[T complex64 | complex128](x []T) {
	for i := 1; i < len(x); i += 2 {
		a, b := x[i-1], x[i]
		x[i-1], x[i] = a+b, a-b
	}
}

// radix2Scaled is radix2 with its outputs multiplied by s, for the
// inverse of length 2, whose first stage is also its last.
func radix2Scaled[T complex64 | complex128](x []T, s T) {
	a, b := x[0], x[1]
	x[0], x[1] = (a+b)*s, (a-b)*s
}

// The radix-4 stages below combine, in each group of 4m points, the
// length-m sub-transforms A0..A3 held in bit-reversed order at offsets
// 0, m, 2m, 3m (A1 holds the inputs ≡ 2 mod 4, A2 those ≡ 1 mod 4):
//
//	a = A0[k], b = wᵏ·A2[k], c = w²ᵏ·A1[k], d = w³ᵏ·A3[k]
//	X[k]    = (a+c) + (b+d)      X[k+2m] = (a+c) − (b+d)
//	X[k+m]  = (a−c) ∓ i(b−d)     X[k+3m] = (a−c) ± i(b−d)
//
// with the upper sign forward. The ±i rotations are real/imaginary
// swaps. Forward and inverse have separate loops so no direction test
// runs per butterfly.

// first4Fwd is the forward radix-4 stage of span 1, whose twiddles are
// all 1.
func first4Fwd(x []complex128) {
	for i := 0; i+3 < len(x); i += 4 {
		q := x[i : i+4 : i+4]
		t0, t1 := q[0]+q[1], q[0]-q[1]
		t2, t3 := q[2]+q[3], q[2]-q[3]
		q[0], q[2] = t0+t2, t0-t2
		q[1] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
		q[3] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
	}
}

// first4Inv is the inverse radix-4 stage of span 1.
func first4Inv(x []complex128) {
	for i := 0; i+3 < len(x); i += 4 {
		q := x[i : i+4 : i+4]
		t0, t1 := q[0]+q[1], q[0]-q[1]
		t2, t3 := q[2]+q[3], q[2]-q[3]
		q[0], q[2] = t0+t2, t0-t2
		q[1] = complex(real(t1)-imag(t3), imag(t1)+real(t3))
		q[3] = complex(real(t1)+imag(t3), imag(t1)-real(t3))
	}
}

// stage4Fwd runs one forward radix-4 stage of span len(tw).
func stage4Fwd(x []complex128, tw []twiddle) {
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

// stage4Inv runs one inverse radix-4 stage of span len(tw).
func stage4Inv(x []complex128, tw []twiddle) {
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

// stage4InvScaled is the last inverse stage, which applies the 1/n
// normalisation: its table tw carries the factor s = 1/n (see
// lastScale), so only the untwiddled input a is scaled here.
func stage4InvScaled(x []complex128, tw []twiddle, s float64) {
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

// planCache is the shared plan cache, keyed by length. Plans are tiny
// relative to field data, so the cache never evicts.
var planCache = struct {
	sync.RWMutex
	m map[int]*Plan
}{m: make(map[int]*Plan)}

// CachedPlan returns a shared plan for length n, creating it on first
// use. Safe for concurrent use: sessions and pipelines are constructed
// from many goroutines, so first-time creation takes a write lock while
// the steady state pays only a read lock.
func CachedPlan(n int) *Plan {
	planCache.RLock()
	p := planCache.m[n]
	planCache.RUnlock()
	if p != nil {
		mPlanHits.Inc()
		return p
	}
	planCache.Lock()
	defer planCache.Unlock()
	if p, ok := planCache.m[n]; ok {
		mPlanHits.Inc()
		return p
	}
	p = NewPlan(n)
	planCache.m[n] = p
	mPlanMisses.Inc()
	return p
}
