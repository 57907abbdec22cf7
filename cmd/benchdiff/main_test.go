package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		want benchLine
		ok   bool
	}{
		{"BenchmarkCacheAccessMRUHit-8   	197019026	         6.094 ns/op", benchLine{name: "BenchmarkCacheAccessMRUHit", ns: 6.094}, true},
		{"BenchmarkTableIV          	       2	2168872337 ns/op	1206849128 B/op	   44042 allocs/op",
			benchLine{name: "BenchmarkTableIV", ns: 2168872337, bytes: 1206849128, allocs: 44042, mem: true}, true},
		{"BenchmarkDisabledSpan-2   	123014362	         9.657 ns/op	       0 B/op	       0 allocs/op",
			benchLine{name: "BenchmarkDisabledSpan", ns: 9.657, mem: true}, true},
		{"BenchmarkAblationLinkage/average-16        100     1200 ns/op", benchLine{name: "BenchmarkAblationLinkage/average", ns: 1200}, true},
		{"BenchmarkX-2   	       1	 80 B/op", benchLine{}, false},
		{"ok  	repro/internal/mem	0.006s", benchLine{}, false},
		{"PASS", benchLine{}, false},
		{"goos: linux", benchLine{}, false},
	}
	for _, c := range cases {
		got, ok := parseBenchLine(c.line)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseBenchLine(%q) = (%+v, %v), want (%+v, %v)", c.line, got, ok, c.want, c.ok)
		}
	}
}

// TestRecordKeepsMinimumPerStatistic: each statistic keeps its own
// minimum across -count repetitions, and B/op and allocs/op are recorded
// only for -benchmem lines.
func TestRecordKeepsMinimumPerStatistic(t *testing.T) {
	rec := Record{Benchmarks: map[string]float64{}}
	for _, line := range []string{
		"BenchmarkTableIV-2   1   1812629562 ns/op   1212376568 B/op   55741 allocs/op",
		"BenchmarkTableIV-2   1   1759046594 ns/op   1206848952 B/op   43956 allocs/op",
		"BenchmarkTableIV-2   1   1826913976 ns/op   1206848632 B/op   43964 allocs/op",
		"BenchmarkCacheAccessHit-2   100   4.4 ns/op",
	} {
		b, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("unparsed: %q", line)
		}
		rec.add(b)
	}
	if got := rec.Benchmarks["BenchmarkTableIV"]; got != 1759046594 {
		t.Errorf("ns/op = %v, want the minimum 1759046594", got)
	}
	if got := rec.BytesPerOp["BenchmarkTableIV"]; got != 1206848632 {
		t.Errorf("B/op = %v, want the minimum 1206848632", got)
	}
	if got := rec.AllocsPerOp["BenchmarkTableIV"]; got != 43956 {
		t.Errorf("allocs/op = %v, want the minimum 43956", got)
	}
	if _, ok := rec.BytesPerOp["BenchmarkCacheAccessHit"]; ok {
		t.Error("a line without -benchmem columns recorded B/op")
	}
}

func TestMergePhases(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "phases.json")
	if err := os.WriteFile(path, []byte(`{"phases":{"table3":103318454,"fig11":88000000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := Record{Benchmarks: map[string]float64{"BenchmarkTableIV": 100}}
	if err := mergePhases(&rec, path); err != nil {
		t.Fatal(err)
	}
	if got := rec.Benchmarks["phase:table3"]; got != 103318454 {
		t.Errorf("phase:table3 = %v, want 103318454", got)
	}
	if got := rec.Benchmarks["phase:fig11"]; got != 88000000 {
		t.Errorf("phase:fig11 = %v, want 88000000", got)
	}
	if got := rec.Benchmarks["BenchmarkTableIV"]; got != 100 {
		t.Errorf("existing benchmark clobbered: %v", got)
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"phases":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergePhases(&rec, empty); err == nil {
		t.Error("empty phase file should be an error")
	}
}

// TestMergePhaseList: a comma-separated -phases spec folds every file,
// matching the bench.sh pattern of pipeline wall-times plus the daemon
// selftest latencies in one record.
func TestMergePhaseList(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pipeline := write("pipeline.json", `{"phases":{"table3":103318454}}`)
	loadgen := write("loadgen.json", `{"phases":{"serve.loadgen.p99":7300000}}`)

	rec := Record{Benchmarks: map[string]float64{}}
	if err := mergePhaseList(&rec, pipeline+","+loadgen); err != nil {
		t.Fatal(err)
	}
	if rec.Benchmarks["phase:table3"] != 103318454 || rec.Benchmarks["phase:serve.loadgen.p99"] != 7300000 {
		t.Errorf("merged record = %v, want both files' phases", rec.Benchmarks)
	}

	if err := mergePhaseList(&Record{Benchmarks: map[string]float64{}}, ""); err != nil {
		t.Errorf("empty spec should be a no-op, got %v", err)
	}
	if err := mergePhaseList(&rec, pipeline+",missing.json"); err == nil {
		t.Error("missing file in the list should be an error")
	}
}

// TestPhaseTolerance: a 20% slowdown regresses a benchmark (tol 10%) but
// not a phase entry (phase-tol 35%).
func TestPhaseTolerance(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec Record) string {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", Record{Rev: "a", Benchmarks: map[string]float64{"phase:table3": 100}})
	cur := write("new.json", Record{Rev: "b", Benchmarks: map[string]float64{"phase:table3": 120}})
	if err := compare([]string{old, cur}); err != nil {
		t.Errorf("20%% phase slowdown should pass the 35%% phase tolerance: %v", err)
	}
	oldB := write("oldb.json", Record{Rev: "a", Benchmarks: map[string]float64{"BenchmarkX": 100}})
	curB := write("newb.json", Record{Rev: "b", Benchmarks: map[string]float64{"BenchmarkX": 120}})
	if err := compare([]string{oldB, curB}); err == nil {
		t.Error("20%% benchmark slowdown should fail the 10%% tolerance")
	}
}

// TestMemoryGate: B/op and allocs/op gate at a fixed 5% beside ns/op,
// differences within the absolute slack never fail, and a record without
// memory statistics is not compared.
func TestMemoryGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec Record) string {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rec := func(rev string, bytes, allocs float64) Record {
		return Record{
			Rev:         rev,
			Benchmarks:  map[string]float64{"BenchmarkX": 100},
			BytesPerOp:  map[string]float64{"BenchmarkX": bytes},
			AllocsPerOp: map[string]float64{"BenchmarkX": allocs},
		}
	}
	old := write("old.json", rec("a", 1e9, 44000))
	for _, c := range []struct {
		name          string
		bytes, allocs float64
		pass          bool
	}{
		{"same", 1e9, 44000, true},
		{"within tolerance", 1.04e9, 45000, true},
		{"much better", 8e7, 11000, true},
		{"bytes regress", 1.2e9, 44000, false},
		{"allocs regress", 1e9, 50000, false},
	} {
		cur := write(c.name+".json", rec("b", c.bytes, c.allocs))
		if err := compare([]string{old, cur}); (err == nil) != c.pass {
			t.Errorf("%s: compare error %v, want pass=%v", c.name, err, c.pass)
		}
	}

	small := write("small.json", rec("a", 0, 0))
	if err := compare([]string{small, write("small1.json", rec("b", 48, 1))}); err != nil {
		t.Errorf("growth within the absolute slack should pass: %v", err)
	}
	if err := compare([]string{small, write("small2.json", rec("b", 200, 2))}); err == nil {
		t.Error("a newly allocating benchmark beyond the slack should fail")
	}

	noMem := write("nomem.json", Record{Rev: "c", Benchmarks: map[string]float64{"BenchmarkX": 100}})
	if err := compare([]string{noMem, write("big.json", rec("b", 1e12, 1e9))}); err != nil {
		t.Errorf("an old record without memory statistics should not gate them: %v", err)
	}
}
