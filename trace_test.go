package lsopc

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"lsopc/internal/obs"
)

// TestConcurrentSessionTraceIntegrity is the observability acceptance
// gate for the session runtime: several sessions optimizing concurrently
// through ONE shared JSONL sink must produce a stream where every line
// is valid JSON, the sink-assigned sequence numbers are strictly
// increasing (no lost or interleaved writes), every session's iteration
// events arrive in order 0..n-1 under its own trace id, and — because
// results are scheduling-independent — the per-iteration cost sequences
// are identical across sessions running the same layout. Run under
// `go test -race .` this is also the data-race gate for the trace path.
func TestConcurrentSessionTraceIntegrity(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	p, err := NewPipeline(PresetTest, GPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	const jobs = 4
	sessions, err := p.Sessions(jobs)
	if err != nil {
		t.Fatal(err)
	}
	layout := Benchmark("B1")
	opts := DefaultLevelSetOptions()
	opts.MaxIter = 5
	opts.Tolerance = 0 // fixed iteration count so all traces are comparable

	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sessions[i].OptimizeLevelSet(layout, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for _, s := range sessions {
		s.Close()
	}
	if err := FlushTrace(sink); err != nil {
		t.Fatal(err)
	}

	var (
		lastSeq int64
		iters   = map[string][]TraceEvent{}
		kinds   = map[string]int{}
	)
	for n, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		var e TraceEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", n+1, err, line)
		}
		if e.Type == "" {
			t.Fatalf("line %d: event without type: %s", n+1, line)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("line %d: seq %d not strictly increasing after %d", n+1, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		kinds[e.Type]++
		if e.Type == EventIteration {
			iters[e.Trace] = append(iters[e.Trace], e)
		}
	}
	for _, kind := range []string{EventIteration, EventCorner, EventSpan} {
		if kinds[kind] == 0 {
			t.Errorf("no %q events in trace (got %v)", kind, kinds)
		}
	}
	if len(iters) != jobs {
		t.Fatalf("expected iteration events under %d trace ids, got %d: %v", jobs, len(iters), kinds)
	}
	var ref []TraceEvent
	for trace, seq := range iters {
		if len(seq) != opts.MaxIter {
			t.Fatalf("trace %s: %d iteration events, want %d", trace, len(seq), opts.MaxIter)
		}
		for i, e := range seq {
			if e.Iter != i {
				t.Fatalf("trace %s: iteration %d arrived out of order (Iter=%d)", trace, i, e.Iter)
			}
		}
		if ref == nil {
			ref = seq
			continue
		}
		// Same layout, same options, shared bank: sessions must be
		// bit-identical regardless of scheduling.
		for i := range seq {
			if seq[i].Cost != ref[i].Cost || seq[i].GradNorm != ref[i].GradNorm {
				t.Errorf("trace %s iter %d diverges: cost=%g gradnorm=%g want cost=%g gradnorm=%g",
					trace, i, seq[i].Cost, seq[i].GradNorm, ref[i].Cost, ref[i].GradNorm)
			}
		}
	}
}

// TestDisabledSinkDoesNotAllocate pins the "observability off" contract
// at the obs layer: emitting through a nil sink guard plus the atomic
// metric updates must stay allocation-free (the optimizer's own warm
// zero-alloc gate lives in internal/core's alloc test).
func TestDisabledSinkDoesNotAllocate(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("trace_test.disabled")
	h := reg.Histogram("trace_test.disabled_ns", obs.DurationBounds)
	var sink obs.Sink
	n := testing.AllocsPerRun(200, func() {
		ctr.Inc()
		h.Observe(123456)
		if sink != nil {
			sink.Emit(obs.Event{Type: EventIteration})
		}
	})
	if n != 0 {
		t.Fatalf("disabled-path metric+trace op allocates %.1f/op, want 0", n)
	}
}

// TestPipelineReleaseFlushesSinkOnce verifies Release drains the attached
// sink and that a double Release is a safe no-op.
func TestPipelineReleaseFlushesSinkOnce(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLTraceSink(&buf)
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	layout := Benchmark("B1")
	mask, err := p.Target(layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(layout, mask, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	p.Release()
	if buf.Len() == 0 {
		t.Fatal("Release did not flush the attached sink")
	}
	p.Release() // must not panic or double-free
}

// TestPipelineHealthPolicyInheritance verifies WithHealthPolicy reaches
// runs started through the pipeline: a policy that flags every
// post-first iteration as stalled must abort the run early and emit a
// typed health event tagged with the session's trace id.
func TestPipelineHealthPolicyInheritance(t *testing.T) {
	sink := NewCollectorTraceSink()
	hp := DefaultHealthPolicy()
	hp.StallWindow = 1
	hp.StallEpsilon = 1e9 // any finite improvement counts as a stall
	hp.DivergenceWindow = 0
	p, err := NewPipeline(PresetTest, CPUEngine(), WithTraceSink(sink), WithHealthPolicy(hp))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	opts := DefaultLevelSetOptions()
	opts.MaxIter = 10
	opts.Tolerance = 0
	res, err := p.OptimizeLevelSet(Benchmark("B1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	ls := res.LevelSet
	if !ls.Aborted || ls.AbortReason != obs.HealthStall {
		t.Fatalf("aborted=%v reason=%q, want stall abort", ls.Aborted, ls.AbortReason)
	}
	if ls.Iterations >= opts.MaxIter {
		t.Fatalf("run used the full budget (%d iterations) despite the abort policy", ls.Iterations)
	}
	found := false
	for _, e := range sink.Events() {
		if e.Type == EventHealth {
			found = true
			if e.Trace == "" || e.Msg != obs.HealthStall {
				t.Fatalf("health event = %+v, want stall under a session trace id", e)
			}
		}
	}
	if !found {
		t.Fatal("no health event reached the pipeline sink")
	}
}
