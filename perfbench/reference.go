package main

import (
	"math"
	"math/cmplx"
	"sync"
	"time"
)

// The reference kernel is a fixed piece of CPU work, written here and
// sharing no code with the program, that the measured loop runs between
// jobs to gauge how fast the host is at that moment. On a shared VM the
// CPU time of the same job moves by up to 2× within seconds and drifts
// by 20–30% over minutes as neighbours load the host; the kernel, run
// interleaved with the jobs, sees the same host, so a job's CPU time
// over the kernel's stays put where each alone does not. One pass is the
// core of a litho simulation in miniature: a 128² complex 2-D FFT, a
// pointwise product with a kernel spectrum, a second 2-D FFT and an
// intensity sum.

const refN = 128

// refKernel is one goroutine's reference working set.
type refKernel struct {
	src, work, spec []complex128
	col             []complex128
	twiddle         []complex128
}

func newRefKernel() *refKernel {
	k := &refKernel{
		src:     make([]complex128, refN*refN),
		work:    make([]complex128, refN*refN),
		spec:    make([]complex128, refN*refN),
		col:     make([]complex128, refN),
		twiddle: make([]complex128, refN/2),
	}
	for i := range k.twiddle {
		k.twiddle[i] = cmplx.Exp(complex(0, -2*math.Pi*float64(i)/refN))
	}
	for i := range k.src {
		k.src[i] = complex(float64(i%7)/7, 0)
		k.spec[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)/2))
	}
	return k
}

// fft1 is an in-place radix-2 transform of len(x) == refN.
func (k *refKernel) fft1(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for s := 0; s < n; s += size {
			for j := 0; j < half; j++ {
				t := k.twiddle[j*step] * x[s+j+half]
				x[s+j+half] = x[s+j] - t
				x[s+j] += t
			}
		}
	}
}

// fft2 transforms the rows, then the columns through a gather buffer.
func (k *refKernel) fft2(x []complex128) {
	for r := 0; r < refN; r++ {
		k.fft1(x[r*refN : (r+1)*refN])
	}
	for c := 0; c < refN; c++ {
		for r := 0; r < refN; r++ {
			k.col[r] = x[r*refN+c]
		}
		k.fft1(k.col)
		for r := 0; r < refN; r++ {
			x[r*refN+c] = k.col[r]
		}
	}
}

// pass runs the kernel once and returns its intensity sum.
func (k *refKernel) pass() float64 {
	copy(k.work, k.src)
	k.fft2(k.work)
	for i := range k.work {
		k.work[i] *= k.spec[i]
	}
	k.fft2(k.work)
	var sum float64
	for _, v := range k.work {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum
}

// reference accumulates the reference kernel's CPU time over a run. It
// runs on as many goroutines as the workload's jobs keep busy, so the
// kernel loads the host the way the jobs do.
type reference struct {
	kernels []*refKernel
	passes  int
	cpu     time.Duration
	wall    time.Duration
	sum     float64 // keeps the passes from being optimized away
}

func newReference(workers int) *reference {
	r := &reference{}
	for i := 0; i < max(workers, 1); i++ {
		r.kernels = append(r.kernels, newRefKernel())
	}
	return r
}

// sample runs passes on every kernel concurrently for about d, at least
// one each, and adds their CPU time, wall time and count to the totals.
func (r *reference) sample(d time.Duration) {
	sums := make([]float64, len(r.kernels))
	passes := make([]int, len(r.kernels))
	c0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for i, k := range r.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for passes[i] == 0 || time.Now().Before(deadline) {
				sums[i] += k.pass()
				passes[i]++
			}
		}()
	}
	wg.Wait()
	r.wall += time.Since(t0)
	r.cpu += cpuTime() - c0
	for i := range sums {
		r.sum += sums[i]
		r.passes += passes[i]
	}
}

// passCPU is the mean CPU time of one pass so far.
func (r *reference) passCPU() time.Duration {
	if r.passes == 0 {
		return 0
	}
	return r.cpu / time.Duration(r.passes)
}

// refPassNominal is the CPU time of one reference pass on the nominal
// host that scaled times refer to, about that of the 2-vCPU VM the
// benchmark was built on when its neighbours were quiet.
const refPassNominal = 1500 * time.Microsecond

// scaled converts CPU seconds measured while reference passes took
// passCPU each into seconds on the nominal host.
func scaled(cpuS float64, passCPU time.Duration) float64 {
	return cpuS * float64(refPassNominal) / float64(passCPU)
}
