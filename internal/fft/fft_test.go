package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"lsopc/internal/engine"
	"lsopc/internal/grid"
	"lsopc/internal/obs"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			// Reducing kj mod n keeps the angle in [0, 2π), so the
			// reference's own rounding stays well below the kernel's.
			ang := -2 * math.Pi * float64(k*j%n) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// kernelSizes covers both parities of log₂n (radix-2 or radix-4 first
// stage) and the row lengths of PresetTest, PresetFast and full clips.
var kernelSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 2048}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range kernelSizes {
		x := randComplex(n, int64(n))
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		d := maxDiff(got, want)
		if d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff vs naive DFT = %g", n, d)
		}
		t.Logf("n=%d: max diff vs naive DFT = %.3g", n, d)
	}
}

func TestRoundTripIdentity(t *testing.T) {
	for _, n := range []int{2, 8, 16, 32, 128, 512, 1024, 2048} {
		p := NewPlan(n)
		x := randComplex(n, 42)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		d := maxDiff(x, y)
		if d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, d)
		}
		t.Logf("n=%d: round trip error %.3g", n, d)
	}
}

// TestZeroInZeroOut pins the invariant the banded batch passes rely on:
// transforming an all-zero vector leaves every bit zero, so skipping a
// known-zero row or column is bit-exact.
func TestZeroInZeroOut(t *testing.T) {
	for _, n := range kernelSizes {
		p := NewPlan(n)
		for _, run := range []func([]complex128){p.Forward, p.Inverse} {
			x := make([]complex128, n)
			run(x)
			for i, v := range x {
				if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
					t.Fatalf("n=%d: bin %d of an all-zero transform is %v, want +0", n, i, v)
				}
			}
		}
	}
}

func TestPlanAllocatesNothing(t *testing.T) {
	p := NewPlan(128)
	x := randComplex(128, 1)
	for name, run := range map[string]func([]complex128){"Forward": p.Forward, "Inverse": p.Inverse} {
		if a := testing.AllocsPerRun(100, func() { run(x) }); a != 0 {
			t.Errorf("Plan.%s: %v allocations per call, want 0", name, a)
		}
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	const n = 64
	x := make([]complex128, n)
	x[0] = 1
	NewPlan(n).Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum at %d = %v, want 1", k, v)
		}
	}
}

func TestParseval(t *testing.T) {
	const n = 256
	x := randComplex(n, 7)
	var spatial float64
	for _, v := range x {
		spatial += real(v)*real(v) + imag(v)*imag(v)
	}
	NewPlan(n).Forward(x)
	var freq float64
	for _, v := range x {
		freq += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freq/float64(n)-spatial) > 1e-8*spatial {
		t.Fatalf("Parseval violated: spatial %g vs freq/n %g", spatial, freq/float64(n))
	}
}

func TestLinearityProperty(t *testing.T) {
	const n = 32
	p := NewPlan(n)
	prop := func(seedA, seedB int64, sRe, sIm float64) bool {
		if math.IsNaN(sRe) || math.IsInf(sRe, 0) {
			sRe = 1
		}
		if math.IsNaN(sIm) || math.IsInf(sIm, 0) {
			sIm = 1
		}
		s := complex(math.Mod(sRe, 100), math.Mod(sIm, 100))
		a := randComplex(n, seedA)
		b := randComplex(n, seedB)
		// FFT(a + s·b)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + s*b[i]
		}
		p.Forward(sum)
		// FFT(a) + s·FFT(b)
		fa := append([]complex128(nil), a...)
		fb := append([]complex128(nil), b...)
		p.Forward(fa)
		p.Forward(fb)
		for i := range fa {
			fa[i] += s * fb[i]
		}
		return maxDiff(sum, fa) < 1e-8*(1+cmplx.Abs(s))*float64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftTheorem(t *testing.T) {
	const n = 64
	p := NewPlan(n)
	x := randComplex(n, 3)
	// y[i] = x[(i-1) mod n]  =>  Y[k] = X[k]·e^{-2πik/n}
	y := make([]complex128, n)
	for i := range y {
		y[i] = x[(i-1+n)%n]
	}
	fx := append([]complex128(nil), x...)
	p.Forward(fx)
	p.Forward(y)
	for k := range y {
		ph := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		if cmplx.Abs(y[k]-fx[k]*ph) > 1e-9 {
			t.Fatalf("shift theorem violated at k=%d", k)
		}
	}
}

func TestPlanRejectsBadLengths(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%d) did not panic", n)
				}
			}()
			NewPlan(n)
		}()
	}
}

func TestForwardRejectsWrongLength(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong length did not panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestCachedPlanReuse(t *testing.T) {
	a := CachedPlan(64)
	b := CachedPlan(64)
	if a != b {
		t.Fatal("CachedPlan must return the same plan for the same length")
	}
	if a.N() != 64 {
		t.Fatalf("plan length %d", a.N())
	}
}

// TestPlanCacheCounters pins the fft.plan_cache.* counters, the only
// record of plan-cache activity: the first lookup of a length is one
// miss and the second one hit, for both precisions. The length is
// evicted first so the miss does not depend on test order or -count.
func TestPlanCacheCounters(t *testing.T) {
	const n = 1 << 13
	hits := obs.Default.Counter("fft.plan_cache.hits")
	misses := obs.Default.Counter("fft.plan_cache.misses")
	for _, tc := range []struct {
		name   string
		evict  func()
		lookup func()
	}{
		{"CachedPlan", func() {
			planCache.Lock()
			delete(planCache.m, n)
			planCache.Unlock()
		}, func() { CachedPlan(n) }},
		{"CachedPlan32", func() {
			planCache32.Lock()
			delete(planCache32.m, n)
			planCache32.Unlock()
		}, func() { CachedPlan32(n) }},
	} {
		tc.evict()
		for call, want := range []struct{ hits, misses int64 }{{0, 1}, {1, 0}} {
			h0, m0 := hits.Value(), misses.Value()
			tc.lookup()
			if dh, dm := hits.Value()-h0, misses.Value()-m0; dh != want.hits || dm != want.misses {
				t.Errorf("%s call %d: +%d hits +%d misses, want +%d +%d",
					tc.name, call+1, dh, dm, want.hits, want.misses)
			}
		}
	}
}

// ---------- 2-D ----------

// naiveDFT2D is the O(n⁴) reference 2-D transform.
func naiveDFT2D(c *grid.CField) *grid.CField {
	out := grid.NewCField(c.W, c.H)
	for ky := 0; ky < c.H; ky++ {
		for kx := 0; kx < c.W; kx++ {
			var s complex128
			for y := 0; y < c.H; y++ {
				for x := 0; x < c.W; x++ {
					ang := -2 * math.Pi * (float64(kx*x)/float64(c.W) + float64(ky*y)/float64(c.H))
					s += c.At(x, y) * cmplx.Exp(complex(0, ang))
				}
			}
			out.Set(kx, ky, s)
		}
	}
	return out
}

func randCField(w, h int, seed int64) *grid.CField {
	rng := rand.New(rand.NewSource(seed))
	c := grid.NewCField(w, h)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

func TestForward2DMatchesNaive(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {4, 8}, {16, 16}} {
		w, h := dims[0], dims[1]
		c := randCField(w, h, int64(w*100+h))
		want := naiveDFT2D(c)
		p := NewPlan2D(w, h, engine.CPU())
		got := c.Clone()
		p.Forward(got)
		if !got.Equal(want, 1e-9*float64(w*h)) {
			t.Errorf("%dx%d: 2-D FFT disagrees with naive DFT", w, h)
		}
	}
}

func TestRoundTrip2D(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {32, 16}, {64, 64}} {
		w, h := dims[0], dims[1]
		p := NewPlan2D(w, h, engine.GPU())
		c := randCField(w, h, 5)
		orig := c.Clone()
		p.Forward(c)
		p.Inverse(c)
		if !c.Equal(orig, 1e-10*float64(w*h)) {
			t.Errorf("%dx%d round trip failed", w, h)
		}
	}
}

func TestEnginesAgreeOn2D(t *testing.T) {
	const w, h = 64, 32
	c1 := randCField(w, h, 11)
	c2 := c1.Clone()
	NewPlan2D(w, h, engine.CPU()).Forward(c1)
	NewPlan2D(w, h, engine.GPU()).Forward(c2)
	if !c1.Equal(c2, 0) {
		t.Fatal("CPU and GPU engines must produce bit-identical transforms")
	}
}

// directCircularConv computes (a ⊛ k)(x,y) = Σ a(u,v)·k(x-u mod W, y-v mod H).
func directCircularConv(a, k *grid.CField) *grid.CField {
	out := grid.NewCField(a.W, a.H)
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			var s complex128
			for v := 0; v < a.H; v++ {
				for u := 0; u < a.W; u++ {
					s += a.At(u, v) * k.At(((x-u)%a.W+a.W)%a.W, ((y-v)%a.H+a.H)%a.H)
				}
			}
			out.Set(x, y, s)
		}
	}
	return out
}

func TestConvolutionTheorem(t *testing.T) {
	const w, h = 8, 8
	a := randCField(w, h, 21)
	k := randCField(w, h, 22)
	want := directCircularConv(a, k)

	p := NewPlan2D(w, h, engine.CPU())
	aSpec := a.Clone()
	p.Forward(aSpec)
	kSpec := k.Clone()
	p.Forward(kSpec)
	got := grid.NewCField(w, h)
	p.Convolve(got, aSpec, kSpec)

	if !got.Equal(want, 1e-9*float64(w*h)) {
		t.Fatal("FFT convolution disagrees with direct circular convolution")
	}
}

func TestSpectrumOfRealField(t *testing.T) {
	const n = 16
	f := grid.NewField(n, n)
	f.Set(3, 5, 1)
	p := NewPlan2D(n, n, engine.CPU())
	spec := p.Spectrum(f)
	// A real field's spectrum is Hermitian: X(-k) = conj(X(k)).
	for ky := 0; ky < n; ky++ {
		for kx := 0; kx < n; kx++ {
			a := spec.At(kx, ky)
			b := spec.At((n-kx)%n, (n-ky)%n)
			if cmplx.Abs(a-cmplx.Conj(b)) > 1e-9 {
				t.Fatalf("Hermitian symmetry violated at (%d,%d)", kx, ky)
			}
		}
	}
}

func TestPlan2DRejectsMismatchedField(t *testing.T) {
	p := NewPlan2D(8, 8, engine.CPU())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched field did not panic")
		}
	}()
	p.Forward(grid.NewCField(4, 8))
}

func TestPlan2DRejectsBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two dims did not panic")
		}
	}()
	NewPlan2D(6, 8, engine.CPU())
}

func TestTransposeRectangular(t *testing.T) {
	const w, h = 8, 4
	src := make([]complex128, w*h)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	dst := make([]complex128, w*h)
	transpose(dst, src, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if dst[x*h+y] != src[y*w+x] {
				t.Fatalf("transpose wrong at (%d,%d)", x, y)
			}
		}
	}
}

// The 1-D kernel benchmarks: forward and inverse at the row lengths of
// PresetTest (128), PresetFast (512) and the paper's full clips (2048),
// for both precisions. Every call starts from the same random vector:
// transforming one buffer over and over would grow or shrink it by √n
// a call into Inf or subnormals, whose arithmetic is not the kernel's.

func BenchmarkFFT1DForward128(b *testing.B)    { benchFFT1D(b, 128, false) }
func BenchmarkFFT1DForward512(b *testing.B)    { benchFFT1D(b, 512, false) }
func BenchmarkFFT1DForward2048(b *testing.B)   { benchFFT1D(b, 2048, false) }
func BenchmarkFFT1DInverse128(b *testing.B)    { benchFFT1D(b, 128, true) }
func BenchmarkFFT1DInverse512(b *testing.B)    { benchFFT1D(b, 512, true) }
func BenchmarkFFT1DInverse2048(b *testing.B)   { benchFFT1D(b, 2048, true) }
func BenchmarkFFT1D32Forward128(b *testing.B)  { benchFFT1D32(b, 128, false) }
func BenchmarkFFT1D32Forward512(b *testing.B)  { benchFFT1D32(b, 512, false) }
func BenchmarkFFT1D32Forward2048(b *testing.B) { benchFFT1D32(b, 2048, false) }
func BenchmarkFFT1D32Inverse128(b *testing.B)  { benchFFT1D32(b, 128, true) }
func BenchmarkFFT1D32Inverse512(b *testing.B)  { benchFFT1D32(b, 512, true) }
func BenchmarkFFT1D32Inverse2048(b *testing.B) { benchFFT1D32(b, 2048, true) }

func benchFFT1D(b *testing.B, n int, inverse bool) {
	p := NewPlan(n)
	src := randComplex(n, 1)
	x := make([]complex128, n)
	run := p.Forward
	if inverse {
		run = p.Inverse
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		run(x)
	}
}

func benchFFT1D32(b *testing.B, n int, inverse bool) {
	p := NewPlan32(n)
	src := toComplex64(randComplex(n, 1))
	x := make([]complex64, n)
	run := p.Forward
	if inverse {
		run = p.Inverse
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, src)
		run(x)
	}
}

func BenchmarkFFT2D512Serial(b *testing.B)   { benchFFT2D(b, 512, engine.CPU()) }
func BenchmarkFFT2D512Parallel(b *testing.B) { benchFFT2D(b, 512, engine.GPU()) }

func benchFFT2D(b *testing.B, n int, eng *engine.Engine) {
	p := NewPlan2D(n, n, eng)
	c := randCField(n, n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(c)
	}
}
