package obs

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Run phases reported by the RunRegistry.
const (
	PhaseRunning   = "running"
	PhaseDone      = "done"
	PhaseCancelled = "cancelled"
)

// RunHealth is the live watchdog status of one run.
type RunHealth struct {
	Events     int    `json:"events,omitempty"`      // health verdicts seen
	LastReason string `json:"last_reason,omitempty"` // most recent reason code
	LastIter   int    `json:"last_iter,omitempty"`
}

// TileProgress is the live tile/stitch rollup of a tiled parent job.
type TileProgress struct {
	Started       int     `json:"started"`
	Done          int     `json:"done"`
	Converged     int     `json:"converged"`
	Pass          int     `json:"pass,omitempty"` // latest completed stitch pass
	Seam          float64 `json:"seam,omitempty"` // worst seam disagreement after it
	SeamConverged bool    `json:"seam_converged,omitempty"`
}

// MarshalJSON keeps a NaN seam (a poisoned tile) from failing the whole
// /runs response.
func (t TileProgress) MarshalJSON() ([]byte, error) {
	type alias TileProgress
	return json.Marshal(struct {
		alias
		Seam traceFloat `json:"seam,omitempty"`
	}{alias(t), traceFloat(t.Seam)})
}

// RunIterPoint is one point of a run's recent iteration series.
type RunIterPoint struct {
	Iter   int     `json:"iter"`
	Cost   float64 `json:"cost"`
	TimeNS int64   `json:"time_ns,omitempty"`
}

// MarshalJSON round-trips non-finite costs like the trace events do.
func (p RunIterPoint) MarshalJSON() ([]byte, error) {
	type alias RunIterPoint
	return json.Marshal(struct {
		alias
		Cost traceFloat `json:"cost"`
	}{alias(p), traceFloat(p.Cost)})
}

// RunState is a point-in-time snapshot of one run (a session or a tile
// sub-run) as folded from its trace events.
type RunState struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"` // tiled job id for <job>.t<n> sub-runs
	Engine string `json:"engine,omitempty"`
	Phase  string `json:"phase"`
	Level  int    `json:"level,omitempty"` // current grid edge under multires

	Iter      int     `json:"iter"`
	Cost      float64 `json:"cost,omitempty"`
	FirstCost float64 `json:"first_cost,omitempty"`
	BestCost  float64 `json:"best_cost,omitempty"`
	BestIter  int     `json:"best_iter,omitempty"`
	// Slope is the incremental ln-cost least-squares slope — the same
	// statistic obs/analyze reports post-mortem (see SlopeAccum).
	Slope float64 `json:"slope_log_per_iter,omitempty"`

	Events    int64 `json:"events"`
	StartNS   int64 `json:"start_ns,omitempty"`
	UpdatedNS int64 `json:"updated_ns,omitempty"`
	DurNS     int64 `json:"dur_ns,omitempty"` // optimize span wall time once finished

	Health        RunHealth `json:"health"`
	Cancelled     bool      `json:"cancelled,omitempty"`
	CancelledIter int       `json:"cancelled_iter,omitempty"`
	Checkpoints   int       `json:"checkpoints,omitempty"`
	// Captures counts the postmortem bundles the flight recorder wrote
	// for this run (capture events).
	Captures int           `json:"captures,omitempty"`
	Tiles    *TileProgress `json:"tiles,omitempty"`
	Children []string      `json:"children,omitempty"`
}

// MarshalJSON makes the cost/slope fields non-finite-safe; everything
// else marshals as usual.
func (s RunState) MarshalJSON() ([]byte, error) {
	type alias RunState
	return json.Marshal(struct {
		alias
		Cost      traceFloat `json:"cost,omitempty"`
		FirstCost traceFloat `json:"first_cost,omitempty"`
		BestCost  traceFloat `json:"best_cost,omitempty"`
		Slope     traceFloat `json:"slope_log_per_iter,omitempty"`
	}{alias(s), traceFloat(s.Cost), traceFloat(s.FirstCost), traceFloat(s.BestCost), traceFloat(s.Slope)})
}

// runEntry is the registry's mutable record behind one RunState.
type runEntry struct {
	st    RunState
	slope SlopeAccum
	// tail is a bounded ring of the most recent iteration points, so
	// /runs/{id} can serve a live convergence series without unbounded
	// growth. It grows by append until it reaches the registry's tail
	// cap, then overwrites oldest-first at head.
	tail    []RunIterPoint
	head    int
	hasBest bool
}

func (e *runEntry) pushPoint(p RunIterPoint, limit int) {
	if limit <= 0 {
		return
	}
	if len(e.tail) < limit {
		e.tail = append(e.tail, p)
		return
	}
	e.tail[e.head] = p
	e.head = (e.head + 1) % len(e.tail)
}

func (e *runEntry) points() []RunIterPoint {
	out := make([]RunIterPoint, 0, len(e.tail))
	out = append(out, e.tail[e.head:]...)
	return append(out, e.tail[:e.head]...)
}

// RunRegistry folds the trace-event stream into live per-run state:
// phase, multires level, iteration/cost/best-cost, incremental
// convergence slope, watchdog health, checkpoint and tile/stitch
// progress. It implements Sink, so it composes into any trace chain
// (TeeSink alongside the JSONL file and the Bus); the /runs endpoints
// serve its snapshots.
//
// Runs are keyed by trace id. Tile sub-runs ("<job>.t<n>") are linked
// to their parent job both ways (RunState.Parent / .Children). Runs
// finish when their optimize span arrives (or a cancelled event);
// finished runs are retained up to MaxFinished and then evicted oldest
// first — in-flight runs are never evicted.
type RunRegistry struct {
	mu       sync.Mutex
	runs     map[string]*runEntry
	finished []string // finish order, oldest first

	maxFinished int
	tailCap     int

	runsGauge *Gauge   // obs.runs.active
	folded    *Counter // obs.runs.events
}

// NewRunRegistry returns a registry publishing its gauges to reg (nil
// means the Default registry), retaining up to 64 finished runs and a
// 512-point iteration tail per run.
func NewRunRegistry(reg *Registry) *RunRegistry {
	if reg == nil {
		reg = Default
	}
	return &RunRegistry{
		runs:        make(map[string]*runEntry),
		maxFinished: 64,
		tailCap:     512,
		runsGauge:   reg.Gauge("obs.runs.active"),
		folded:      reg.Counter("obs.runs.events"),
	}
}

// SetRetention overrides how many finished runs and how many tail
// points per run are kept (values ≤ 0 keep the current setting).
// Call before serving traffic; it does not shrink existing tails.
func (rr *RunRegistry) SetRetention(maxFinished, tailPoints int) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if maxFinished > 0 {
		rr.maxFinished = maxFinished
	}
	if tailPoints > 0 {
		rr.tailCap = tailPoints
	}
}

// ParentRun returns the tiled parent job id for a tile sub-run id
// ("<job>.t<n>"), or "" when id is not a tile sub-run. Allocation-free.
func ParentRun(id string) string {
	i := strings.LastIndex(id, ".t")
	if i <= 0 {
		return ""
	}
	digits := id[i+2:]
	if digits == "" {
		return ""
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return ""
		}
	}
	return id[:i]
}

// entry returns (creating if needed) the record for a run id.
// Caller holds rr.mu.
func (rr *RunRegistry) entry(id string, timeNS int64) *runEntry {
	e, ok := rr.runs[id]
	if !ok {
		e = &runEntry{st: RunState{
			ID:      id,
			Parent:  ParentRun(id),
			Phase:   PhaseRunning,
			StartNS: timeNS,
		}}
		rr.runs[id] = e
		rr.runsGauge.Add(1)
		if e.st.Parent != "" {
			if p, ok := rr.runs[e.st.Parent]; ok {
				p.st.Children = addChild(p.st.Children, id)
			}
		}
	}
	if e.st.StartNS == 0 || (timeNS != 0 && timeNS < e.st.StartNS) {
		e.st.StartNS = timeNS
	}
	if timeNS > e.st.UpdatedNS {
		e.st.UpdatedNS = timeNS
	}
	return e
}

func addChild(children []string, id string) []string {
	for _, c := range children {
		if c == id {
			return children
		}
	}
	return append(children, id)
}

// Emit implements Sink. Progress lines and events with no run id are
// ignored; everything else folds into the owning run's state.
func (rr *RunRegistry) Emit(e Event) {
	if e.Type == EventProgress || e.Trace == "" {
		return
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.folded.Inc()
	r := rr.entry(e.Trace, e.TimeNS)
	r.st.Events++

	switch e.Type {
	case EventIteration:
		if r.st.Events == 1 || r.st.Iter < e.Iter {
			r.st.Iter = e.Iter
		}
		r.st.Cost = e.Cost
		if r.slope.i == 0 {
			r.st.FirstCost = e.Cost
		}
		r.slope.Observe(e.Cost)
		r.st.Slope = r.slope.Slope()
		if finite(e.Cost) && (!r.hasBest || e.Cost < r.st.BestCost) {
			r.st.BestCost, r.st.BestIter, r.hasBest = e.Cost, e.Iter, true
		}
		r.pushPoint(RunIterPoint{Iter: e.Iter, Cost: e.Cost, TimeNS: e.TimeNS}, rr.tailCap)
	case EventLevelSwitch:
		r.st.Level = e.N
		if e.Iter > r.st.Iter {
			r.st.Iter = e.Iter
		}
	case EventHealth:
		r.st.Health.Events++
		r.st.Health.LastReason = e.Msg
		r.st.Health.LastIter = e.Iter
	case EventCancelled:
		r.st.Cancelled = true
		r.st.CancelledIter = e.Iter
		rr.finish(r, PhaseCancelled)
	case EventCheckpoint:
		r.st.Checkpoints++
	case EventCapture:
		r.st.Captures++
	case EventTileStart:
		t := r.tiles()
		t.Started++
		child := rr.entry(childID(e.Trace, e.Tile), e.TimeNS)
		child.st.Parent = e.Trace
		r.st.Children = addChild(r.st.Children, child.st.ID)
	case EventTileDone:
		t := r.tiles()
		t.Done++
		if e.Hit {
			t.Converged++
		}
	case EventStitchPass:
		t := r.tiles()
		if e.Pass > t.Pass {
			t.Pass = e.Pass
		}
		t.Seam = e.Seam
		t.SeamConverged = e.Hit
	case EventSpan:
		if e.Engine != "" && r.st.Engine == "" {
			r.st.Engine = e.Engine
		}
		if strings.HasPrefix(e.Name, "optimize") {
			r.st.DurNS = e.DurNS
			if r.st.Phase == PhaseRunning {
				rr.finish(r, PhaseDone)
			}
		}
	}
}

// childID mirrors the tiling layer's "<job>.t<n>" trace-id convention.
func childID(job string, tile int) string { return job + ".t" + strconv.Itoa(tile) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// tiles returns the entry's tile rollup, creating it on first use.
func (e *runEntry) tiles() *TileProgress {
	if e.st.Tiles == nil {
		e.st.Tiles = &TileProgress{}
	}
	return e.st.Tiles
}

// finish flips a run to a terminal phase and applies the finished-run
// retention cap. Caller holds rr.mu.
func (rr *RunRegistry) finish(e *runEntry, phase string) {
	if e.st.Phase != PhaseRunning {
		return
	}
	e.st.Phase = phase
	rr.runsGauge.Add(-1)
	rr.finished = append(rr.finished, e.st.ID)
	// A tiled job's terminal event covers its tile sub-runs too: tiles
	// emit no optimize span of their own, so without the cascade they
	// would stay "running" (and pin the active-runs gauge) forever.
	for _, id := range e.st.Children {
		if ce, ok := rr.runs[id]; ok {
			rr.finish(ce, phase)
		}
	}
	for len(rr.finished) > rr.maxFinished {
		old := rr.finished[0]
		rr.finished = rr.finished[1:]
		delete(rr.runs, old)
	}
}

// snapshot deep-copies the parts of a RunState that later folding
// mutates in place. Caller holds rr.mu.
func (e *runEntry) snapshot() RunState {
	st := e.st
	if st.Tiles != nil {
		t := *st.Tiles
		st.Tiles = &t
	}
	if st.Children != nil {
		st.Children = append([]string(nil), st.Children...)
	}
	return st
}

// Runs returns a snapshot of every tracked run, in-flight first, then
// by start time, then id.
func (rr *RunRegistry) Runs() []RunState {
	rr.mu.Lock()
	out := make([]RunState, 0, len(rr.runs))
	for _, e := range rr.runs {
		out = append(out, e.snapshot())
	}
	rr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Phase == PhaseRunning, out[j].Phase == PhaseRunning
		if ri != rj {
			return ri
		}
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Run returns the snapshot and recent iteration series of one run.
func (rr *RunRegistry) Run(id string) (RunState, []RunIterPoint, bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	e, ok := rr.runs[id]
	if !ok {
		return RunState{}, nil, false
	}
	return e.snapshot(), e.points(), true
}
