package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("counter not memoized by name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("hist sum = %g, want 555.5", h.Sum())
	}
	snap := r.Snapshot()
	for key, want := range map[string]float64{
		"c": 5, "g": 5,
		"h.count": 4, "h.sum": 555.5,
		"h.le1": 1, "h.le10": 2, "h.le100": 3, "h.leInf": 4,
	} {
		if snap[key] != want {
			t.Fatalf("snapshot[%q] = %g, want %g (snap %v)", key, snap[key], want, snap)
		}
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("d", DurationBounds)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1e6)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	h := r.Histogram("d", DurationBounds)
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
	if want := float64(workers*per) * 1e6; h.Sum() != want {
		t.Fatalf("hist sum = %g, want %g", h.Sum(), want)
	}
}

func TestMetricUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBounds)
	if avg := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(3e6)
	}); avg != 0 {
		t.Fatalf("metric updates allocate %.1f objects/op, want 0", avg)
	}
}

func TestWriteTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a.count 1\nb.count 2\n"
	if buf.String() != want {
		t.Fatalf("text dump = %q, want %q", buf.String(), want)
	}
}

func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := fmt.Sprintf("s%d", w)
			for i := 0; i < per; i++ {
				sink.Emit(Event{Type: EventIteration, Trace: trace, Iter: i, Cost: float64(i)})
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every line is valid JSON, seq is a strictly increasing total
	// order, and each trace's iteration events arrive in order.
	sc := bufio.NewScanner(&buf)
	lastSeq := int64(0)
	nextIter := map[string]int{}
	lines := 0
	for sc.Scan() {
		lines++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: invalid JSON %q: %v", lines, sc.Text(), err)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("line %d: seq %d not increasing after %d", lines, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Iter != nextIter[e.Trace] {
			t.Fatalf("trace %s: iter %d, want %d", e.Trace, e.Iter, nextIter[e.Trace])
		}
		nextIter[e.Trace]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != workers*per {
		t.Fatalf("lines = %d, want %d (lost events)", lines, workers*per)
	}
	for trace, n := range nextIter {
		if n != per {
			t.Fatalf("trace %s: %d events, want %d", trace, n, per)
		}
	}
}

func TestJSONLSinkStampsTime(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	before := time.Now().UnixNano()
	sink.Emit(Event{Type: EventSpan, Name: "job"})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.TimeNS < before || e.TimeNS > time.Now().UnixNano() {
		t.Fatalf("time_ns %d outside call window", e.TimeNS)
	}
	if e.Seq != 1 {
		t.Fatalf("seq = %d, want 1", e.Seq)
	}
}

func TestLineSinkProgressPassthrough(t *testing.T) {
	var buf bytes.Buffer
	sink := NewLineSink(&buf)
	sink.Emit(Event{Type: EventProgress, Msg: "B4 Ours RT=1.0s\n"})
	if got := buf.String(); got != "B4 Ours RT=1.0s\n" {
		t.Fatalf("progress line = %q", got)
	}
	buf.Reset()
	sink.Emit(Event{Type: EventSpan, Name: "optimize", Engine: "cpu", DurNS: 2e6})
	if !strings.Contains(buf.String(), "optimize") || !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("span line = %q", buf.String())
	}
}

func TestWorkerBusy(t *testing.T) {
	wb := NewWorkerBusy(4)
	wb.Add(0, 10*time.Millisecond)
	wb.Add(3, 30*time.Millisecond)
	wb.Add(99, 5*time.Millisecond) // clamps to last slot
	if got := wb.Total(); got != 45*time.Millisecond {
		t.Fatalf("total = %v, want 45ms", got)
	}
}

func TestFlushHelper(t *testing.T) {
	if err := Flush(nil); err != nil {
		t.Fatal(err)
	}
	var c CollectorSink
	if err := Flush(&c); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Type: EventSpan})
	if err := Flush(s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("flush did not drain buffered line")
	}
}

func TestHTTPHandlerServesMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(3)
	srv, err := Serve("127.0.0.1:0", r, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "requests 3") {
		t.Fatalf("/metrics missing counter: %q", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	if body := get("/debug/vars"); !strings.Contains(body, "lsopc") {
		t.Fatalf("/debug/vars missing registry: %q", body)
	}
}
