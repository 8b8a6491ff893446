package obs

import (
	"sync/atomic"
	"time"
)

// paddedInt64 keeps each worker's busy accumulator on its own cache
// line so concurrent workers don't false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// WorkerBusy accumulates per-worker busy time for an engine (and, via
// slot offsets, for the sub-engines of an Engine.Split partition).
// Worker k of a (sub-)engine adds the wall time of each leaf loop it
// executes to its slot; utilization over a measured interval is then
// Total divided by wall time × workers.
type WorkerBusy struct {
	slots []paddedInt64
}

// NewWorkerBusy sizes the accumulator for n workers (the root engine's
// worker count; Split sub-engines map onto disjoint slot ranges).
func NewWorkerBusy(n int) *WorkerBusy {
	if n < 1 {
		n = 1
	}
	return &WorkerBusy{slots: make([]paddedInt64, n)}
}

// Add records d of busy time for the given worker slot. Out-of-range
// slots clamp to the last slot, so oversized Split partitions degrade
// to coarse attribution instead of panicking.
func (w *WorkerBusy) Add(slot int, d time.Duration) {
	if slot < 0 {
		slot = 0
	}
	if slot >= len(w.slots) {
		slot = len(w.slots) - 1
	}
	w.slots[slot].v.Add(int64(d))
}

// Total returns the summed busy time across all slots.
func (w *WorkerBusy) Total() time.Duration {
	var t int64
	for i := range w.slots {
		t += w.slots[i].v.Load()
	}
	return time.Duration(t)
}
