package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every read, so span durations are
// deterministic functions of call order.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func TestSpanNesting(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Millisecond)))
	driver := tr.Span("driver", "table4")
	suite := tr.Span("measure", "dotnet-cats/CoreI9")
	w := suite.ChildLane(1, "sim", "System.Runtime")
	p := w.Child("prewarm", "")
	p.End()
	w.End()
	suite.End()
	driver.End()

	recs, _, _, _ := tr.snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	wantDepth := []int{0, 1, 2, 3}
	wantLane := []int{0, 0, 1, 1}
	wantParent := []int{-1, 0, 1, 2}
	for i, r := range recs {
		if r.Depth != wantDepth[i] || r.Lane != wantLane[i] || r.parent != wantParent[i] {
			t.Errorf("span %d (%s): depth=%d lane=%d parent=%d, want %d/%d/%d",
				i, r.Name, r.Depth, r.Lane, r.parent, wantDepth[i], wantLane[i], wantParent[i])
		}
		if r.Dur <= 0 {
			t.Errorf("span %d (%s): non-positive duration %v", i, r.Name, r.Dur)
		}
	}
}

// TestSequentialStackRecovers: ending a driver span with a forgotten child
// still pops both, so the next driver is a sibling, not a grandchild.
func TestSequentialStackRecovers(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Millisecond)))
	d1 := tr.Span("driver", "fig1")
	tr.Span("measure", "leaked") // never ended
	d1.End()
	d2 := tr.Span("driver", "fig2")
	d2.End()

	recs, _, _, _ := tr.snapshot()
	if got := recs[2]; got.Depth != 0 || got.parent != -1 {
		t.Fatalf("second driver should be a root span, got depth=%d parent=%d", got.Depth, got.parent)
	}
}

func TestCountersAndGauges(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Millisecond)))
	tr.Add("mstore.hits", 2)
	tr.Add("mstore.hits", 3)
	tr.Gauge("pool.utilization", 0.5)
	tr.Gauge("pool.utilization", 0.75)
	if got := tr.Counter("mstore.hits"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	snap := tr.Snapshot()
	if snap["mstore.hits"] != int64(5) {
		t.Errorf("snapshot counter = %v", snap["mstore.hits"])
	}
	if snap["pool.utilization"] != 0.75 {
		t.Errorf("snapshot gauge = %v", snap["pool.utilization"])
	}
}

func TestEndIdempotent(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	tr := New(WithClock(clock))
	s := tr.Span("driver", "x")
	s.End()
	d := s.Duration()
	s.End()
	if s.Duration() != d {
		t.Fatal("second End changed the duration")
	}
}

func TestPhases(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Millisecond)))
	a := tr.Span("driver", "table3")
	a.End()
	b := tr.Span("driver", "table4")
	c := b.Child("measure", "x") // depth 1: not a phase
	c.End()
	b.End()
	ph := tr.Phases()
	if len(ph) != 2 || ph[0].Name != "table3" || ph[1].Name != "table4" {
		t.Fatalf("phases = %+v", ph)
	}
	if ph[0].Dur <= 0 || ph[1].Dur <= 0 {
		t.Fatalf("non-positive phase durations: %+v", ph)
	}
}

// TestNilSafety: the disabled state is a nil *Trace; every call must
// no-op without panicking.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Span("driver", "x")
	c := sp.Child("run", "")
	cl := sp.ChildLane(3, "sim", "w")
	c.End()
	cl.End()
	sp.End()
	tr.Add("ctr", 1)
	tr.Gauge("g", 1)
	if tr.Counter("ctr") != 0 {
		t.Fatal("nil trace counter should read 0")
	}
	if sp.Trace() != nil {
		t.Fatal("nil span's Trace() should be nil")
	}
	if sp.Duration() != 0 {
		t.Fatal("nil span duration should be 0")
	}
	if tr.Phases() != nil || tr.Snapshot() != nil {
		t.Fatal("nil trace phases/snapshot should be nil")
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil || b.Len() != 0 {
		t.Fatal("nil trace export should write nothing")
	}
	if err := tr.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatal("nil trace JSONL export should write nothing")
	}
	if err := tr.WriteSelfProfile(&b); err != nil || b.Len() != 0 {
		t.Fatal("nil trace self-profile should write nothing")
	}
	if !tr.Now().IsZero() {
		t.Fatal("nil trace Now() should be the zero time")
	}
}

// TestDisabledPathAllocationFree pins the contract that uninstrumented
// callers pay ~zero cost: the nil-receiver path performs no allocations.
func TestDisabledPathAllocationFree(t *testing.T) {
	var tr *Trace
	n := testing.AllocsPerRun(1000, func() {
		sp := tr.Span("driver", "x")
		w := sp.ChildLane(1, "sim", "w")
		r := w.Child("run", "")
		r.End()
		w.End()
		sp.End()
		tr.Add("ctr", 1)
		tr.Gauge("g", 0.5)
		tr.Observe("h", time.Millisecond)
		tr.Histogram("h").ObserveDuration(w.Duration())
		_ = sp.Trace()
		_ = w.Duration()
	})
	if n != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", n)
	}
}

func TestProgressOutput(t *testing.T) {
	var out strings.Builder
	tr := New(WithClock(newFakeClock(time.Millisecond)), WithProgress(&out))
	d := tr.Span("driver", "table4")
	s := tr.Span("measure", "dotnet-cats/CoreI9")
	w := s.ChildLane(1, "sim", "System.Runtime") // depth 2: silent
	w.End()
	s.End()
	d.End()
	got := out.String()
	for _, want := range []string{
		"charnet: driver table4 ...",
		"charnet:   measure dotnet-cats/CoreI9 ...",
		"charnet:   measure dotnet-cats/CoreI9 done in",
		"charnet: driver table4 done in",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("progress output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "sim System.Runtime") {
		t.Errorf("per-workload spans must not emit progress:\n%s", got)
	}
}

// TestProgressConcurrentWorkers is the progress writer's race regression:
// pool workers open and end per-workload ChildLane spans while suite
// measurements open and end concurrently, all against one progress writer
// that is not safe for concurrent use. Under -race an unserialized write
// fails the test. Per-workload spans stay silent whatever they nest
// under: here their parents are top-level spans, so a depth filter alone
// would print them.
func TestProgressConcurrentWorkers(t *testing.T) {
	var out strings.Builder
	tr := New(WithClock(newFakeClock(time.Microsecond)), WithProgress(&out))
	const workers, jobs = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			suite := tr.Span("measure", fmt.Sprintf("suite%d", lane))
			for i := 0; i < jobs; i++ {
				sim := suite.ChildLane(lane, "sim", "w")
				sim.Child("run", "").End()
				sim.End()
			}
			suite.End()
		}(w + 1)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2*workers {
		t.Fatalf("got %d progress lines, want %d (one start and one end per suite):\n%s", len(lines), 2*workers, out.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "charnet: ") || !strings.Contains(l, "measure suite") {
			t.Errorf("unexpected progress line %q", l)
		}
	}
}

// TestConcurrentUse exercises the lock paths under the race detector.
func TestConcurrentUse(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Microsecond)))
	suite := tr.Span("measure", "x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := suite.ChildLane(lane, "sim", "w")
				tr.Add("jobs", 1)
				s.End()
			}
		}(w + 1)
	}
	wg.Wait()
	suite.End()
	if got := tr.Counter("jobs"); got != 400 {
		t.Fatalf("jobs counter = %d, want 400", got)
	}
	recs, _, _, _ := tr.snapshot()
	if len(recs) != 401 {
		t.Fatalf("got %d spans, want 401", len(recs))
	}
}
