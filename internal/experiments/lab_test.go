package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countingCache wraps the store interface and counts misses (Put calls),
// to observe how many times the Lab actually measured.
type countingCache struct {
	puts atomic.Int64
}

func (c *countingCache) Get([]workload.Profile, *machine.Config, sim.Options) ([]core.Measurement, bool) {
	return nil, false
}

func (c *countingCache) Put(_ []workload.Profile, _ *machine.Config, _ sim.Options, _ []core.Measurement) {
	c.puts.Add(1)
}

// TestMeasureSingleflight drives many concurrent drivers at one key: the
// suite must be simulated exactly once, with late callers waiting on the
// in-flight measurement instead of duplicating it (the Lab.measure race).
func TestMeasureSingleflight(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	counter := &countingCache{}
	lab.Store = counter
	m := machine.CoreI9()
	ps := workload.DotNetCategories()[:4]

	const callers = 8
	results := make([][]core.Measurement, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = lab.measure(context.Background(), "race-key", ps, m, sim.Options{Instructions: 2000})
		}(i)
	}
	wg.Wait()

	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("suite measured %d times for one key; want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d errored: %v", i, errs[i])
		}
	}
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d received a different measurement slice", i)
		}
	}
}

// TestMeasureCancelledEvicted checks the error path of the singleflight:
// a cancelled measurement must propagate the context error to every
// waiter, write nothing to the store, and leave no poisoned cache entry —
// a later call with a live context re-measures and succeeds.
func TestMeasureCancelledEvicted(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	counter := &countingCache{}
	lab.Store = counter
	m := machine.CoreI9()
	ps := workload.DotNetCategories()[:4]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.measure(ctx, "cancel-key", ps, m, sim.Options{Instructions: 2000}); err == nil {
		t.Fatal("cancelled measure should fail")
	}
	if n := counter.puts.Load(); n != 0 {
		t.Fatalf("cancelled measurement stored %d entries; want 0", n)
	}

	ms, err := lab.measure(context.Background(), "cancel-key", ps, m, sim.Options{Instructions: 2000})
	if err != nil {
		t.Fatalf("re-measure after cancellation: %v", err)
	}
	if len(ms) != len(ps) {
		t.Fatalf("re-measure yielded %d measurements, want %d", len(ms), len(ps))
	}
	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("re-measure stored %d entries; want 1", n)
	}
}

// TestOnceMemo checks the generic memo: one execution per key, shared
// value, and eviction on error so a later call can succeed.
func TestOnceMemo(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	var runs atomic.Int64
	f := func(context.Context) (any, error) {
		runs.Add(1)
		return "value", nil
	}
	const callers = 8
	var wg sync.WaitGroup
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = lab.once(context.Background(), "memo-key", nil, f)
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("memoized function ran %d times; want 1", n)
	}
	for i := range vals {
		if vals[i] != "value" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.once(ctx, "memo-err", nil, func(ctx context.Context) (any, error) {
		return nil, ctx.Err()
	}); err == nil {
		t.Fatal("erroring memo should fail")
	}
	v, err := lab.once(context.Background(), "memo-err", nil, func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("memo entry not evicted on error: v=%v err=%v", v, err)
	}
}

// TestDotNetIndividualExactLimit checks the stride sample honors the
// configured limit exactly and spans the suite rather than a prefix, for
// limits that do not divide the suite size.
func TestDotNetIndividualExactLimit(t *testing.T) {
	for _, n := range []int{1, 7, 219} {
		cfg := Quick()
		cfg.Instructions = 1200
		cfg.DotNetIndividualLimit = n
		lab := NewLab(cfg)
		ms, err := lab.DotNetIndividual(context.Background(), machine.CoreI9())
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != n {
			t.Fatalf("limit %d yielded %d workloads", n, len(ms))
		}
	}
}

// TestDotNetIndividualKeyedOnSelection checks that two different limits
// never share a cache entry: the key covers the actual selection.
func TestDotNetIndividualKeyedOnSelection(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 2000
	cfg.DotNetIndividualLimit = 5
	lab := NewLab(cfg)
	m := machine.CoreI9()
	a, err := lab.DotNetIndividual(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	lab.Cfg.DotNetIndividualLimit = 9
	b, err := lab.DotNetIndividual(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 || len(b) != 9 {
		t.Fatalf("got %d and %d measurements, want 5 and 9", len(a), len(b))
	}
	// Distinct selections must also be distinct measurement sets: the
	// 9-sample is not the 5-sample (different strides pick different
	// workloads past index 0).
	if a[1].Workload.Name == b[1].Workload.Name {
		t.Fatalf("different limits picked the same second workload %q — key collision suspected", a[1].Workload.Name)
	}
}

// TestSensitivityThroughStore: the Sensitivity sweep measures through the
// Lab, so a second Lab sharing the first one's store reproduces the
// result without simulating, and no two configurations share a Lab key.
func TestSensitivityThroughStore(t *testing.T) {
	store, err := mstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() (*SensitivityResult, *obs.Trace) {
		t.Helper()
		lab := NewLab(Config{Instructions: 2000})
		lab.Obs = obs.New()
		store.Obs = lab.Obs
		lab.Store = store
		res, err := Sensitivity(context.Background(), lab)
		if err != nil {
			t.Fatal(err)
		}
		return res, lab.Obs
	}
	cold, coldTr := sweep()
	warm, warmTr := sweep()

	measurements := int64(3 * len(cold.Rows))
	if n := coldTr.Counter("mstore.puts"); n != measurements {
		t.Fatalf("cold sweep stored %d suite measurements, want %d (one per config and subset)", n, measurements)
	}
	if n := coldTr.Counter("lab.memcache.hits"); n != 0 {
		t.Fatalf("cold sweep hit the Lab's memory %d times: two configurations share a key", n)
	}
	base := cold.Rows[0]
	for _, row := range cold.Rows {
		if (row.Config == "half-fidelity" || row.Config == "double-fidelity") && row.KernelGap == base.KernelGap && row.LLCRatio == base.LLCRatio {
			t.Errorf("%s row equals baseline: its measurements were shared", row.Config)
		}
	}

	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("store-served sweep differs from the measured one")
	}
	if n := warmTr.Counter("mstore.hits"); n != measurements {
		t.Fatalf("warm sweep read %d store entries, want %d", n, measurements)
	}
	if n := warmTr.Counter("sim.instructions"); n != 0 {
		t.Fatalf("warm sweep simulated %d instructions, want 0", n)
	}
}

// TestMeasureMemoryHitIsFree: once a key is measured, serving it again
// from the Lab's memory opens no span and allocates nothing.
func TestMeasureMemoryHitIsFree(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	lab.Obs = obs.New()
	m := machine.CoreI9()
	ps := workload.DotNetCategories()[:2]
	opts := sim.Options{Instructions: 2000}
	ctx := context.Background()
	if _, err := lab.measure(ctx, "hit-key", ps, m, opts); err != nil {
		t.Fatal(err)
	}
	measureSpans := func() int {
		var b strings.Builder
		if err := lab.Obs.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return strings.Count(b.String(), `"name":"measure"`)
	}
	spans := measureSpans()
	if spans != 1 {
		t.Fatalf("first measurement opened %d measure spans, want 1", spans)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := lab.measure(ctx, "hit-key", ps, m, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memory-cache hit allocated %.1f times per call, want 0", allocs)
	}
	if n := measureSpans(); n != spans {
		t.Errorf("memory-cache hits opened %d spans, want 0", n-spans)
	}
	if n := lab.Obs.Counter("lab.memcache.hits"); n < 100 {
		t.Errorf("lab.memcache.hits = %d, want every hit counted", n)
	}
}
