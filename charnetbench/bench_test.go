package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// nameRE is the shape every metric and workload name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestSchedulesArePureFunctionsOfTheSeed(t *testing.T) {
	keys := selectKeys()
	if !reflect.DeepEqual(warmMix(7), warmMix(7)) {
		t.Fatal("warmMix differs for one seed")
	}
	if reflect.DeepEqual(warmMix(7), warmMix(8)) {
		t.Fatal("warmMix ignores the seed")
	}
	mix := warmMix(7)
	for k := 0; k < 3; k++ {
		if !reflect.DeepEqual(warmSchedule(7, mix, k), warmSchedule(7, mix, k)) {
			t.Fatalf("warm batch %d differs for one seed", k)
		}
		a, b := selectSchedule(7, keys, k), selectSchedule(7, keys, k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("select round %d differs for one seed", k)
		}
		if reflect.DeepEqual(a, selectSchedule(8, keys, k)) {
			t.Fatalf("select round %d ignores the seed", k)
		}
		seen := map[selectKey]bool{}
		for _, key := range a {
			if seen[key] {
				t.Fatalf("select round %d repeats %s", k, key)
			}
			seen[key] = true
		}
	}
	if reflect.DeepEqual(warmSchedule(7, mix, 0), warmSchedule(7, mix, 1)) {
		t.Fatal("warm batches repeat")
	}
	for k := 0; k < 3; k++ {
		if pickStore(7, k, coldRuns) != pickStore(7, k, coldRuns) {
			t.Fatalf("pickStore differs for one seed at batch %d", k)
		}
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 999)
	if _, err := tail(xs, 99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	xs = append(xs, 1)
	if _, err := tail(xs, 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %g, want 3.7", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json this program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			name(d.name)
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

func TestLedgerSharesAddUpToWallTime(t *testing.T) {
	// A root of 100µs holding a measure span whose two sim spans run in
	// parallel on lanes 1 and 2, each with a run child.
	spans := []spanRec{
		{Name: "bench.table4", Depth: 0, StartUS: 0, DurUS: 100},
		{Name: "experiments.measure", Depth: 1, StartUS: 10, DurUS: 80},
		{Name: "measure", Depth: 2, StartUS: 10, DurUS: 80},
		{Name: "sim", Depth: 3, Lane: 1, StartUS: 20, DurUS: 60},
		{Name: "run", Depth: 4, Lane: 1, StartUS: 30, DurUS: 50},
		{Name: "sim", Depth: 3, Lane: 2, StartUS: 20, DurUS: 40},
		{Name: "run", Depth: 4, Lane: 2, StartUS: 20, DurUS: 40},
	}
	parents := []int{-1, 0, 1, 2, 3, 2, 5}
	for i, p := range parents {
		spans[i].parent = p
	}
	led, err := buildLedger(spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range led.wall {
		sum += v
	}
	if math.Abs(sum-100e-6) > 1e-12 {
		t.Fatalf("shares sum to %g, want 100µs", sum)
	}
	// Self time: run spans 50+40, the lane-1 sim 10 outside its run.
	if got := led.self["sim.run"]; math.Abs(got-90e-6) > 1e-12 {
		t.Errorf("sim.run self = %g, want 90µs", got)
	}
	if got := led.self["sim.other"]; math.Abs(got-10e-6) > 1e-12 {
		t.Errorf("sim.other self = %g, want 10µs", got)
	}
	// measure (core) is uncovered for 10..20 and 80..90.
	if got := led.self["core"]; math.Abs(got-20e-6) > 1e-12 {
		t.Errorf("core self = %g, want 20µs", got)
	}
	// 20..30: lane-1 sim and lane-2 run split it; 30..60: both runs; 60..80: lane-1 run alone.
	if got := led.wall["sim.run"]; math.Abs(got-(5+30+20)*1e-6) > 1e-12 {
		t.Errorf("sim.run wall = %g, want 55µs", got)
	}
}

func TestCalibrationScalesByNearbySamples(t *testing.T) {
	ms := time.Millisecond
	// Twenty samples bound nineteen intervals; the host halves its speed
	// from sample 10 on, its CPU time from sample 12 on.
	var c calibrator
	for i := 0; i < 20; i++ {
		w, cpu := 27*ms, 53*ms
		if i >= 10 {
			w = 54 * ms
		}
		if i >= 12 {
			cpu = 106 * ms
		}
		c.wall = append(c.wall, w)
		c.cpu = append(c.cpu, cpu)
	}
	// Interval i sees samples i+1-calSpan through i+calSpan.
	if got := c.wallScale(0); got != 1 {
		t.Errorf("wallScale(0) = %g, want 1", got)
	}
	if got := c.wallScale(18); got != 0.5 {
		t.Errorf("wallScale(18) = %g, want 0.5", got)
	}
	// Interval 9 sees six samples of each speed.
	if got, want := c.wallScale(9), 27.0/40.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("wallScale(9) = %g, want %g", got, want)
	}
	got := c.wallSeconds([]scaled{{2 * time.Second, 0}, {2 * time.Second, 18}})
	if got[0] != 2 || got[1] != 1 {
		t.Errorf("wallSeconds = %v, want [2 1]", got)
	}
	if got := c.cpuSeconds([]scaled{{time.Second, 0}, {time.Second, 18}}); got[0] != 1 || got[1] != 0.5 {
		t.Errorf("cpuSeconds = %v, want [1 0.5]", got)
	}
	if r := raw([]scaled{{3 * time.Second, 18}}); r[0] != 3 {
		t.Errorf("raw = %v, want [3]", r)
	}
}

func TestCalibrationSampleRecordsWork(t *testing.T) {
	var c calibrator
	if i := c.sample(); i != 0 {
		t.Fatalf("first sample opens interval %d, want 0", i)
	}
	if i := c.sample(); i != 1 || len(c.wall) != 2 || len(c.cpu) != 2 {
		t.Fatalf("second sample: interval %d, %d wall and %d CPU readings", i, len(c.wall), len(c.cpu))
	}
	for _, w := range c.wall {
		if w <= 0 {
			t.Fatalf("sample wall time %v", w)
		}
	}
}
