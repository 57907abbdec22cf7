package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMeasureSuiteObs: an instrumented suite measurement produces one sim
// span per workload (each with prewarm/run/derive children), reports pool
// gauges, and returns measurements identical to an uninstrumented run.
func TestMeasureSuiteObs(t *testing.T) {
	ps := workload.DotNetCategories()[:8]
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 3000}

	ref, err := Measure(context.Background(), nil, ps, m, opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New()
	suite := tr.Span("measure", "test-suite")
	o := opts
	o.Obs = suite
	got, err := Measure(context.Background(), nil, ps, m, o, 2)
	suite.End()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, ref) {
		t.Fatal("instrumentation changed the measurements")
	}

	var export strings.Builder
	if err := tr.WriteJSONL(&export); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(export.String(), "\n") {
		for _, name := range []string{"sim", "prewarm", "run", "derive"} {
			if strings.Contains(line, `"name":"`+name+`"`) {
				counts[name]++
			}
		}
	}
	for _, name := range []string{"sim", "prewarm", "run", "derive"} {
		if counts[name] != len(ps) {
			t.Errorf("%d %q spans, want %d", counts[name], name, len(ps))
		}
	}
	snap := tr.Snapshot()
	if w, _ := snap["pool.workers"].(float64); w != 2 {
		t.Errorf("pool.workers = %v, want 2", snap["pool.workers"])
	}
	if u, _ := snap["pool.utilization"].(float64); u <= 0 || u > 1 {
		t.Errorf("pool.utilization = %v, want in (0, 1]", snap["pool.utilization"])
	}
	if c, _ := snap["sim.instructions"].(int64); c <= 0 {
		t.Errorf("sim.instructions = %v, want > 0", snap["sim.instructions"])
	}
}

// TestMeasureCacheWorkers: the workers parameter reaches the pool and a
// warm cache answers without re-measuring.
func TestMeasureCacheWorkers(t *testing.T) {
	ps := workload.DotNetCategories()[:4]
	m := machine.CoreI9()
	opts := sim.Options{Instructions: 3000}
	cache := &countingCache{}

	first, err := Measure(context.Background(), cache, ps, m, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Measure(context.Background(), cache, ps, m, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts != 1 || cache.gets != 2 {
		t.Fatalf("cache traffic gets=%d puts=%d, want 2/1", cache.gets, cache.puts)
	}
	if !reflect.DeepEqual(first, warm) {
		t.Fatal("warm result differs from cold result")
	}
}

type countingCache struct {
	gets, puts int
	stored     []Measurement
}

func (c *countingCache) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]Measurement, bool) {
	c.gets++
	if c.stored == nil {
		return nil, false
	}
	return c.stored, true
}

func (c *countingCache) Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []Measurement) {
	c.puts++
	c.stored = ms
}
