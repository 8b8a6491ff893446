package core

import (
	"context"
	"errors"
	"testing"

	"lsopc/internal/grid"
	"lsopc/internal/litho"
	"lsopc/internal/obs"
	"lsopc/internal/solve"
)

// cancelAtSink cancels a context when the iteration event numbered
// `at` is emitted — the deterministic stand-in for a user's Ctrl-C:
// the step that emits the event completes, and the driver observes the
// cancellation at the next iteration boundary.
type cancelAtSink struct {
	at     int
	cancel context.CancelFunc
}

func (s *cancelAtSink) Emit(e obs.Event) {
	if e.Type == obs.EventIteration && e.Iter == s.at {
		s.cancel()
	}
}

// cancelRun runs the (possibly multi-resolution) optimization and
// cancels it deterministically after global iteration `at` completes,
// returning the captured checkpoint.
func cancelRun(t *testing.T, sim *litho.Simulator, target *grid.Field, opts Options, at int) *solve.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Sink = &cancelAtSink{at: at, cancel: cancel}
	_, err := RunMultiResolution(ctx, sim, target, opts)
	var cerr *solve.Cancelled
	if !errors.As(err, &cerr) {
		t.Fatalf("cancelled run returned %v, want *solve.Cancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	return cerr.Checkpoint
}

// expectIdentical asserts a resumed run reproduced the uninterrupted
// reference bit for bit: same history row by row, same final ψ and
// mask.
func expectIdentical(t *testing.T, res, ref *Result) {
	t.Helper()
	if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
		t.Fatalf("resumed run: %d iters converged=%v, reference %d/%v",
			res.Iterations, res.Converged, ref.Iterations, ref.Converged)
	}
	if len(res.History) != len(ref.History) {
		t.Fatalf("resumed history %d rows, reference %d", len(res.History), len(ref.History))
	}
	for i := range ref.History {
		if res.History[i] != ref.History[i] {
			t.Fatalf("history[%d] diverged after resume:\n  resumed   %+v\n  reference %+v",
				i, res.History[i], ref.History[i])
		}
	}
	if !res.Psi.Equal(ref.Psi, 0) {
		t.Fatal("resumed ψ differs from the uninterrupted run")
	}
	if !res.Mask.Equal(ref.Mask, 0) {
		t.Fatal("resumed mask differs from the uninterrupted run")
	}
}

func TestCancelMonolithicResumeBitIdentical(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 10

	ref, err := RunMultiResolution(context.Background(), sim, target, opts)
	if err != nil {
		t.Fatal(err)
	}

	cp := cancelRun(t, sim, target, opts, 3)
	if cp.Factor != 1 || cp.Iter != 4 {
		t.Fatalf("checkpoint at factor %d iter %d, want 1/4", cp.Factor, cp.Iter)
	}
	if len(cp.History) != 4 {
		t.Fatalf("checkpoint history %d rows, want 4", len(cp.History))
	}

	opts.Sink = nil
	res, err := Resume(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

func TestCancelMultiResBetweenLevels(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 12
	opts.Tolerance = 0 // use the full budget: keeps the level offsets pinned
	opts.MultiResFactor = 4
	opts.MultiResIters = 2 // levels: 64/4 ×2, 64/2 ×2, full ×8

	ref, err := RunMultiResolution(context.Background(), sim, target, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Global iteration 1 is the coarsest level's last step, so the
	// cancellation lands on the boundary *between* levels: the hand-off
	// has happened and the factor-2 level is checkpointed untouched.
	cp := cancelRun(t, sim, target, opts, 1)
	if cp.Factor != 2 || cp.Iter != 0 {
		t.Fatalf("checkpoint at factor %d iter %d, want 2/0", cp.Factor, cp.Iter)
	}
	if cp.DoneIters != 2 || len(cp.Done) != 2 {
		t.Fatalf("checkpoint carries %d done iterations (%d rows), want 2", cp.DoneIters, len(cp.Done))
	}

	opts.Sink = nil
	res, err := Resume(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

func TestCancelMultiResInsideFineLevel(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 12
	opts.Tolerance = 0 // use the full budget: keeps the level offsets pinned
	opts.MultiResFactor = 4
	opts.MultiResIters = 2

	ref, err := RunMultiResolution(context.Background(), sim, target, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Global iteration 5 is the second step of the full-resolution level
	// (offset 4): the checkpoint must land inside that level.
	cp := cancelRun(t, sim, target, opts, 5)
	if cp.Factor != 1 || cp.Iter != 2 || cp.Offset != 4 {
		t.Fatalf("checkpoint at factor %d iter %d offset %d, want 1/2/4", cp.Factor, cp.Iter, cp.Offset)
	}

	opts.Sink = nil
	res, err := Resume(context.Background(), sim, target, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, res, ref)
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 10

	cp := cancelRun(t, sim, target, opts, 2)

	opts.Sink = nil
	if _, err := Resume(context.Background(), sim, target, opts, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := *cp
	bad.Method = "something-else"
	if _, err := Resume(context.Background(), sim, target, opts, &bad); err == nil {
		t.Fatal("foreign-method checkpoint accepted")
	}
	bad = *cp
	bad.Factor = 2
	if _, err := Resume(context.Background(), sim, target, opts, &bad); err == nil {
		t.Fatal("coarse-level checkpoint accepted by a single-resolution run")
	}
	multi := opts
	multi.MultiResFactor = 4
	bad = *cp
	bad.Factor = 8 // not a level of the factor-4 schedule
	if _, err := Resume(context.Background(), sim, target, multi, &bad); err == nil {
		t.Fatal("checkpoint at a factor outside the schedule accepted")
	}
}

// TestResumeRejectsMalformedCheckpoint: a real cancelled-run checkpoint
// whose ψ claims 64×64 but carries 10 values, or whose iteration is
// negative, must not resume.
func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	sim := newTestSim(t, 3)
	target := crossTarget(64)
	opts := DefaultOptions()
	opts.MaxIter = 10

	cp := cancelRun(t, sim, target, opts, 3)
	opts.Sink = nil
	short := func(cp *solve.Checkpoint) {
		psi := cp.State["psi"]
		state := make(map[string]*grid.Field, len(cp.State))
		for k, f := range cp.State {
			state[k] = f
		}
		state["psi"] = &grid.Field{W: psi.W, H: psi.H, Data: psi.Data[:10]}
		cp.State = state
	}
	for _, tc := range []struct {
		name   string
		mutate func(*solve.Checkpoint)
	}{
		{"short psi", short},
		{"negative iteration", func(cp *solve.Checkpoint) { cp.Iter = -3 }},
		{"both", func(cp *solve.Checkpoint) { short(cp); cp.Iter = -3 }},
	} {
		bad := *cp
		tc.mutate(&bad)
		if res, err := Resume(context.Background(), sim, target, opts, &bad); err == nil {
			t.Errorf("%s: resumed with a nil error (%d iterations, %d history rows)", tc.name, res.Iterations, len(res.History))
		}
	}
}
