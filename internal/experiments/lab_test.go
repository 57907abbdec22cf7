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

// dotnetHead names the first n .NET categories: a small selection for
// the singleflight tests.
func dotnetHead(n int) []string {
	names := make([]string, n)
	for i, p := range workload.DotNetCategories()[:n] {
		names[i] = p.Name
	}
	return names
}

// TestMeasureSingleflight drives many concurrent drivers at one key: the
// suite must be simulated exactly once, with late callers waiting on the
// in-flight measurement instead of duplicating it (the Lab.measure race).
func TestMeasureSingleflight(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	counter := &countingCache{}
	lab.Store = counter
	m := machine.CoreI9()
	dotnet, names := lab.builtin("dotnet"), dotnetHead(4)

	const callers = 8
	results := make([][]core.Measurement, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = lab.measure(context.Background(), dotnet, names, m, sim.Options{Instructions: 2000})
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
	dotnet, names := lab.builtin("dotnet"), dotnetHead(4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.measure(ctx, dotnet, names, m, sim.Options{Instructions: 2000}); err == nil {
		t.Fatal("cancelled measure should fail")
	}
	if n := counter.puts.Load(); n != 0 {
		t.Fatalf("cancelled measurement stored %d entries; want 0", n)
	}

	ms, err := lab.measure(context.Background(), dotnet, names, m, sim.Options{Instructions: 2000})
	if err != nil {
		t.Fatalf("re-measure after cancellation: %v", err)
	}
	if len(ms) != len(names) {
		t.Fatalf("re-measure yielded %d measurements, want %d", len(ms), len(names))
	}
	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("re-measure stored %d entries; want 1", n)
	}
}

// TestMeasureMemo checks the Lab's measurement identity: one simulation
// per key however many callers ask, a tracing span is not part of the
// key, any simulator option is, and a failed measurement is evicted so a
// later call succeeds.
func TestMeasureMemo(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	counter := &countingCache{}
	lab.Store = counter
	m := machine.CoreI9()
	dotnet, names := lab.builtin("dotnet"), dotnetHead(2)
	opts := sim.Options{Instructions: 2000}
	measure := func(ctx context.Context, opts sim.Options) error {
		_, err := lab.measure(ctx, dotnet, names, m, opts)
		return err
	}

	for i := 0; i < 3; i++ {
		if err := measure(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	traced := opts
	traced.Obs = obs.New().Span("measure", "elsewhere")
	if err := measure(context.Background(), traced); err != nil {
		t.Fatal(err)
	}
	if n := counter.puts.Load(); n != 1 {
		t.Fatalf("one key measured %d times; want 1", n)
	}
	salted := opts
	salted.SeedSalt = 1
	if err := measure(context.Background(), salted); err != nil {
		t.Fatal(err)
	}
	if n := counter.puts.Load(); n != 2 {
		t.Fatalf("a new seed salt measured %d new times; want 1", n-1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evicted := opts
	evicted.Instructions = 1000
	if err := measure(ctx, evicted); err == nil {
		t.Fatal("cancelled measurement should fail")
	}
	if err := measure(context.Background(), evicted); err != nil {
		t.Fatalf("failed measurement not evicted: %v", err)
	}
	if n := counter.puts.Load(); n != 3 {
		t.Fatalf("measured %d times after the eviction; want 3", n)
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
// from the Lab's memory opens no span and allocates nothing — on a named
// subset, on a whole suite, and on a stride-sampled one.
func TestMeasureMemoryHitIsFree(t *testing.T) {
	cfg := Config{Instructions: 1000, DotNetIndividualLimit: 8}
	lab := NewLab(cfg)
	lab.Obs = obs.New()
	m := machine.CoreI9()
	ctx := context.Background()
	dotnet, names := lab.builtin("dotnet"), dotnetHead(2)
	opts := sim.Options{Instructions: 2000}
	hits := []struct {
		name string
		hit  func() ([]core.Measurement, error)
	}{
		{"subset", func() ([]core.Measurement, error) { return lab.measure(ctx, dotnet, names, m, opts) }},
		{"aspnet", func() ([]core.Measurement, error) { return lab.AspNet(ctx, m) }},
		{"dotnet-individual", func() ([]core.Measurement, error) { return lab.DotNetIndividual(ctx, m) }},
	}
	measureSpans := func() int {
		var b strings.Builder
		if err := lab.Obs.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return strings.Count(b.String(), `"name":"measure"`)
	}
	for _, h := range hits {
		name, hit := h.name, h.hit
		if _, err := hit(); err != nil {
			t.Fatal(err)
		}
		spans := measureSpans()
		before := lab.Obs.Counter("lab.memcache.hits")
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := hit(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: memory-cache hit allocated %.1f times per call, want 0", name, allocs)
		}
		if n := measureSpans(); n != spans {
			t.Errorf("%s: memory-cache hits opened %d spans, want 0", name, n-spans)
		}
		if n := lab.Obs.Counter("lab.memcache.hits") - before; n < 100 {
			t.Errorf("%s: lab.memcache.hits rose by %d, want every hit counted", name, n)
		}
	}
	if n := measureSpans(); n != 3 {
		t.Errorf("three measurements opened %d measure spans, want 3", n)
	}
}
