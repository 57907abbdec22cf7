package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/subset"
	"repro/internal/workload"
)

// mustMeasure runs Measure with no cache on the default pool and fails
// the test on a suite-level error.
func mustMeasure(t *testing.T, ps []workload.Profile, m *machine.Config, opts sim.Options) []Measurement {
	t.Helper()
	ms, err := Measure(context.Background(), nil, ps, m, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// measureCats measures the first n .NET categories at low fidelity.
func measureCats(t *testing.T, n int) []Measurement {
	t.Helper()
	cats := workload.DotNetCategories()
	if n > len(cats) {
		n = len(cats)
	}
	ms := mustMeasure(t, cats[:n], machine.CoreI9(), sim.Options{Instructions: 8000})
	for _, m := range ms {
		if m.Err != nil {
			t.Fatalf("%s failed: %v", m.Workload.Name, m.Err)
		}
	}
	return ms
}

func TestMeasureSuiteOrderAndDeterminism(t *testing.T) {
	a := measureCats(t, 6)
	b := measureCats(t, 6)
	for i := range a {
		if a[i].Workload.Name != b[i].Workload.Name {
			t.Fatal("measurement order not stable")
		}
		if a[i].Vector != b[i].Vector {
			t.Fatalf("%s: vectors differ across runs", a[i].Workload.Name)
		}
	}
}

func TestMeasureSuiteCapturesErrors(t *testing.T) {
	p, _ := workload.ByName(workload.DotNetCategories(), "System.Collections")
	p.WorkingSetBytes = 190 << 20
	ms := mustMeasure(t, []workload.Profile{p}, machine.CoreI9(),
		sim.Options{Instructions: 1000, MaxHeapBytes: 200 << 20})
	if ms[0].Err == nil {
		t.Fatal("expected OOM error to be captured")
	}
	vs, idx := Vectors(ms)
	if len(vs) != 0 || len(idx) != 0 {
		t.Fatal("failed measurement leaked into vectors")
	}
}

func TestCharacterizePipeline(t *testing.T) {
	ms := measureCats(t, 10)
	ch, err := Characterize(ms, 4, cluster.Average)
	if err != nil {
		t.Fatal(err)
	}
	if ch.TopPCs != 4 || len(ch.Features) != 10 || len(ch.Features[0]) != 4 {
		t.Fatalf("feature shape %dx%d", len(ch.Features), len(ch.Features[0]))
	}
	// The top four PCs must explain a dominant share of variance (paper: 79%).
	if cum := ch.PCA.CumulativeVariance(4); cum < 0.5 {
		t.Fatalf("top-4 PC variance %v too low", cum)
	}
	sub := ch.Subset(3)
	if len(sub) != 3 {
		t.Fatalf("subset size %d", len(sub))
	}
	names := ch.SubsetNames(sub)
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bad subset names %v", names)
		}
		seen[n] = true
	}
	clusters := ch.Clusters(3)
	if len(clusters) != 3 {
		t.Fatalf("clusters %v", clusters)
	}
}

func TestCharacterizeErrors(t *testing.T) {
	if _, err := Characterize(nil, 4, cluster.Average); err == nil {
		t.Fatal("empty measurements accepted")
	}
}

func TestGroupPCA(t *testing.T) {
	ms := measureCats(t, 8)
	vs, _ := Vectors(ms)
	fit, scores, err := GroupPCA(vs, metrics.MemoryIDs())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 8 || len(scores[0]) != 2 {
		t.Fatalf("scores shape %dx%d", len(scores), len(scores[0]))
	}
	if len(fit.Components[0]) != len(metrics.MemoryIDs()) {
		t.Fatal("group PCA dimensionality wrong")
	}
}

func TestSpreadRatioSPECWider(t *testing.T) {
	// §V-C: SPEC's control-flow spread exceeds the managed suites'.
	specMs := mustMeasure(t, workload.SpecWorkloads()[:10], machine.CoreI9(), sim.Options{Instructions: 8000})
	dnMs := measureCats(t, 10)
	specVs, _ := Vectors(specMs)
	dnVs, _ := Vectors(dnMs)
	r1, _, err := SpreadRatio(specVs, dnVs, metrics.ControlFlowIDs())
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 1 {
		t.Fatalf("SPEC control-flow spread ratio %v should exceed 1 (paper: 5.73x)", r1)
	}
}

func TestExecutionTimesAndValidationFlow(t *testing.T) {
	// End-to-end §IV-C: measure on two machines, validate a subset.
	cats := workload.DotNetCategories()[:8]
	opts := sim.Options{Instructions: 6000}
	base := mustMeasure(t, cats, machine.XeonE5(), opts)
	fast := mustMeasure(t, cats, machine.CoreI9(), opts)
	bt := ExecutionTimes(base)
	ft := ExecutionTimes(fast)
	scores, err := subset.Scores(bt, ft)
	if err != nil {
		t.Fatal(err)
	}
	// The i9 runs at a higher clock than the Xeon: the composite score
	// must favor it. (Individual scores can dip below 1 at this tiny
	// fidelity when a JIT churn event lands inside one machine's window
	// but not the other's.)
	if comp := subset.Composite(scores); comp <= 1 {
		t.Fatalf("composite %v; the i9 should beat the Xeon overall", comp)
	}
	for i, s := range scores {
		if s <= 0.3 {
			t.Fatalf("score %d = %v implausibly low", i, s)
		}
	}
	v := subset.Validate("test", scores, []int{0, 2, 4, 6})
	if v.AccuracyFraction <= 0.5 {
		t.Fatalf("even a naive half subset should be reasonably accurate, got %v", v.AccuracyFraction)
	}
}

// fakeCache records Put calls for the cancellation tests.
type fakeCache struct{ puts int }

func (c *fakeCache) Get([]workload.Profile, *machine.Config, sim.Options) ([]Measurement, bool) {
	return nil, false
}

func (c *fakeCache) Put(_ []workload.Profile, _ *machine.Config, _ sim.Options, _ []Measurement) {
	c.puts++
}

// TestMeasurePreCancelled: a context that is already cancelled must
// yield no measurements, the context error, and no cache write.
func TestMeasurePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := &fakeCache{}
	ms, err := Measure(ctx, cache, workload.DotNetCategories()[:4],
		machine.CoreI9(), sim.Options{Instructions: 2000}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ms != nil {
		t.Fatalf("cancelled suite returned %d measurements; partial results must be discarded", len(ms))
	}
	if cache.puts != 0 {
		t.Fatalf("cancelled suite wrote %d cache entries; want 0", cache.puts)
	}
}

// TestMeasureWorkerCountInvariant: two workers and the default pool
// (workers=0, GOMAXPROCS) measure the same vectors in the same order.
func TestMeasureWorkerCountInvariant(t *testing.T) {
	ps := workload.DotNetCategories()[:4]
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 2000}
	got, err := Measure(context.Background(), nil, ps, m, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := mustMeasure(t, ps, m, opts)
	if len(got) != len(want) {
		t.Fatalf("got %d measurements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Workload.Name != want[i].Workload.Name || got[i].Vector != want[i].Vector {
			t.Fatalf("%s: workers=2 and workers=0 diverge", got[i].Workload.Name)
		}
	}
}

// TestSuiteMeasurementReusesAndReleasesEngineStorage guards the worker
// arena from both sides. Reuse: with one worker, every workload after the
// first runs on the storage the first one allocated, so a workload
// allocates tens of KB instead of a fresh ~21 MB hierarchy. Release: once
// the measurement returns, a GC brings the heap back to where it started;
// an arena cached beyond its measurement (a global or a sync.Pool, whose
// victim cache survives one GC) would keep ~21 MB live. The machine is a
// Xeon with its LLC doubled, a geometry no other test uses, so storage
// that outlives its measurement must be allocated, and show, here.
func TestSuiteMeasurementReusesAndReleasesEngineStorage(t *testing.T) {
	m := machine.XeonE5()
	m.L3.SizeBytes *= 2
	ps := workload.DotNetCategories()[:6]
	opts := sim.Options{Instructions: 1000}
	measure := func(ps []workload.Profile) []Measurement {
		t.Helper()
		ms, err := Measure(context.Background(), nil, ps, m, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	const retainSlack = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ms := measure(ps)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ms)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > retainSlack {
		t.Errorf("heap grew %d B across a measurement, want <= %d B: engine storage outlived it", grew, retainSlack)
	}

	allocated := func(ps []workload.Profile) int64 {
		var start, end runtime.MemStats
		runtime.ReadMemStats(&start)
		measure(ps)
		runtime.ReadMemStats(&end)
		return int64(end.TotalAlloc - start.TotalAlloc)
	}
	const perWorkloadBound = 512 << 10
	one, all := allocated(ps[:1]), allocated(ps)
	if per := (all - one) / int64(len(ps)-1); per > perWorkloadBound {
		t.Errorf("each workload after the first allocated %d B, want <= %d B: engine storage is not reused", per, perWorkloadBound)
	}
}
