package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"math/rand/v2"
	"testing"

	"lsopc"
	"lsopc/internal/layouts"
)

func layoutBytes(t *testing.T, ls []*lsopc.Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range ls {
		if err := lsopc.WriteGLP(&buf, l); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestInputsSeeded: the seed alone decides the layouts — the same seed
// gives identical ones and another seed different ones.
func TestInputsSeeded(t *testing.T) {
	for _, s := range specs {
		gen := func(seed int64) []byte {
			ls, err := inputs(s, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.name, seed, err)
			}
			return layoutBytes(t, ls)
		}
		a, again, other := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave different layouts on two calls", s.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave identical layouts", s.name)
		}
	}
}

func TestInputShapes(t *testing.T) {
	want := map[string]int{"clips-serial": 10, "chip-tiled": chips}
	for _, s := range specs {
		ls, err := inputs(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) != want[s.name] {
			t.Errorf("%s: %d inputs, want %d", s.name, len(ls), want[s.name])
		}
	}
}

// TestChipInputsStratified: whatever the seed, the chip-tiled chips
// occupy the same fixed slots and a round of chips uses every clip
// equally often; the seed only decides which cell goes where.
func TestChipInputsStratified(t *testing.T) {
	var ids []string
	for _, b := range lsopc.Benchmarks() {
		ids = append(ids, b.ID)
	}
	pattern := func(cells []string) string {
		var p []byte
		for _, c := range cells {
			if c == layouts.EmptyCell {
				p = append(p, '.')
			} else {
				p = append(p, 'x')
			}
		}
		return string(p)
	}
	want := map[string]int{}
	for _, slots := range chipSlots() {
		cells := make([]string, chipSide*chipSide)
		for i := range cells {
			cells[i] = layouts.EmptyCell
		}
		for _, s := range slots {
			cells[s] = "B1"
		}
		want[pattern(cells)]++
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		got, uses := map[string]int{}, map[string]int{}
		for _, cells := range chipArrays(rng, ids) {
			got[pattern(cells)]++
			for _, c := range cells {
				if c != layouts.EmptyCell {
					uses[c]++
				}
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("seed %d: occupied slots %v, want %v", seed, got, want)
		}
		for _, id := range ids {
			if uses[id] != chips*chipCells/len(ids) {
				t.Errorf("seed %d: %s used %d times, want %d", seed, id, uses[id], chips*chipCells/len(ids))
			}
		}
	}
}

// TestFailedJobsAreCounted: a job under an already-cancelled context and
// a job whose mask does not match the grid both count as failed, and a
// run with a failure is not correct.
func TestFailedJobsAreCounted(t *testing.T) {
	s, _ := specByName("clips-serial")
	s.iters = 5
	b, err := newBench(s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	var tl tally
	good := b.runJob(context.Background(), 0, true)
	if good.err != nil {
		t.Fatalf("healthy job failed: %v", good.err)
	}
	tl.record(good, io.Discard)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := b.runJob(ctx, 1, true)
	if !errors.Is(cancelled.err, context.Canceled) {
		t.Errorf("cancelled job error = %v, want context.Canceled", cancelled.err)
	}
	tl.record(cancelled, io.Discard)

	mismatched := b.call(context.Background(), 2)
	if mismatched.err != nil {
		t.Fatal(mismatched.err)
	}
	mismatched.run.Mask = lsopc.NewField(64, 64)
	if mismatched.err = b.check(&mismatched); mismatched.err == nil {
		t.Error("a 64x64 mask on a 128 px grid passed the output checks")
	}
	tl.record(mismatched, io.Discard)

	res := tl.result(nil)
	if res.Attempted != 3 || res.Failed != 2 || res.Correct {
		t.Errorf("result %+v, want 3 attempted, 2 failed, not correct", res)
	}
}

func TestCheckMask(t *testing.T) {
	m := lsopc.NewField(4, 4)
	m.Data[3] = 1
	if err := checkMask(m, 4, 4); err != nil {
		t.Errorf("binary mask rejected: %v", err)
	}
	m.Data[5] = 0.5
	if checkMask(m, 4, 4) == nil {
		t.Error("non-binary mask accepted")
	}
	if checkMask(nil, 4, 4) == nil {
		t.Error("missing mask accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "clips-serial", "-trace", "2"},
		{"-workload", "clips-serial", "-seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}
