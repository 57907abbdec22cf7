// Command benchdiff records and compares benchmark runs: the mechanism
// that turns "the pipeline is fast" into an enforced property.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchdiff record -rev REV [-phases FILE[,FILE...]] -out BENCH_REV.json
//	benchdiff compare [-tol 0.10] [-phase-tol 0.35] OLD.json NEW.json
//
// record parses standard `go test -bench` output from stdin and writes a
// JSON record mapping benchmark names to ns/op (the minimum across -count
// repetitions, the conventional low-noise statistic). Lines carrying
// -benchmem columns also record B/op and allocs/op (again the minimum:
// the first repetition pays one-time initialization). With -phases it also
// merges one or more phase files (comma-separated) into the record as
// "phase:<name>" entries: `charnet -profile-json` wall-times and
// `charnetd -selftest-json` serving latencies share the format, so a
// regression localizes to a pipeline phase (table3, fig11, ...) or a
// serving percentile (serve.loadgen.p99) rather than just "the pipeline".
//
// compare exits nonzero if any benchmark present in both records is
// slower in NEW by more than the tolerance (default 10%; "phase:" entries
// are single whole-pipeline runs and get the looser -phase-tol, default
// 35%), or allocates over 5% more bytes or objects per op.
// Allocation counts do not drift with host load, so their gate is tight
// and fixed; differences below one object or 64 bytes per op are
// amortized-growth rounding and never fail. scripts/bench.sh drives both
// halves.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark run: ns/op per benchmark name, plus B/op and
// allocs/op for benchmarks run with -benchmem.
type Record struct {
	Rev         string             `json:"rev"`
	Note        string             `json:"note,omitempty"`
	Benchmarks  map[string]float64 `json:"benchmarks"`
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// benchLine is one parsed `go test -bench` result line.
type benchLine struct {
	name          string
	ns            float64
	bytes, allocs float64
	mem           bool // the line carried -benchmem columns
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "compare":
		err = compare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: benchdiff record -rev REV [-phases FILE] -out FILE < bench-output
       benchdiff compare [-tol FRAC] [-phase-tol FRAC] OLD.json NEW.json`)
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	rev := fs.String("rev", "unknown", "revision label for the record")
	note := fs.String("note", "", "free-form annotation")
	out := fs.String("out", "", "output file (default stdout)")
	phases := fs.String("phases", "", "comma-separated phase files ({\"phases\":{name:ns}}) to merge as phase:<name> entries")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rec := Record{Rev: *rev, Note: *note, Benchmarks: map[string]float64{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass output through so the run stays visible
		if b, ok := parseBenchLine(line); ok {
			rec.add(b)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	if err := mergePhaseList(&rec, *phases); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(*out, b, 0o644)
}

// add folds one result line into the record, keeping the minimum of each
// statistic across -count repetitions: the least-interference run.
func (r *Record) add(b benchLine) {
	keepMin(r.Benchmarks, b.name, b.ns)
	if !b.mem {
		return
	}
	if r.BytesPerOp == nil {
		r.BytesPerOp, r.AllocsPerOp = map[string]float64{}, map[string]float64{}
	}
	keepMin(r.BytesPerOp, b.name, b.bytes)
	keepMin(r.AllocsPerOp, b.name, b.allocs)
}

func keepMin(m map[string]float64, name string, v float64) {
	if old, seen := m[name]; !seen || v < old {
		m[name] = v
	}
}

// phasePrefix marks whole-pipeline phase wall-times inside a record; they
// come from one run each, so compare applies the looser -phase-tol.
const phasePrefix = "phase:"

// mergePhaseList folds every file in a comma-separated -phases spec;
// empty elements (and an empty spec) are skipped.
func mergePhaseList(rec *Record, spec string) error {
	for _, path := range strings.Split(spec, ",") {
		if path == "" {
			continue
		}
		if err := mergePhases(rec, path); err != nil {
			return err
		}
	}
	return nil
}

// mergePhases folds one phases file ({"phases": {name: nanoseconds}} —
// `charnet -profile-json` or `charnetd -selftest-json`) into the record
// under phase-prefixed names.
func mergePhases(rec *Record, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Phases map[string]float64 `json:"phases"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Phases) == 0 {
		return fmt.Errorf("%s: no phases recorded", path)
	}
	for name, ns := range doc.Phases {
		rec.Benchmarks[phasePrefix+name] = ns
	}
	return nil
}

// parseBenchLine extracts a `go test -bench` result line, e.g.
// "BenchmarkTableIV-8   1   1.2e9 ns/op   80549984 B/op   11232 allocs/op".
// The -GOMAXPROCS suffix is stripped so records from different machines
// stay comparable.
func parseBenchLine(line string) (benchLine, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return benchLine{}, false
	}
	b := benchLine{name: f[0], ns: -1}
	if j := strings.LastIndexByte(b.name, '-'); j > 0 {
		if _, err := strconv.Atoi(b.name[j+1:]); err == nil {
			b.name = b.name[:j]
		}
	}
	var haveBytes, haveAllocs bool
	for i := 2; i+1 < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			b.ns = v
		case "B/op":
			b.bytes, haveBytes = v, true
		case "allocs/op":
			b.allocs, haveAllocs = v, true
		}
	}
	b.mem = haveBytes && haveAllocs
	return b, b.ns >= 0
}

// B/op and allocs/op are deterministic, so their gate is a fixed 5%;
// differences below one object or 64 bytes per op are amortized-growth
// rounding and never fail.
const (
	memTol         = 0.05
	memSlackBytes  = 64
	memSlackAllocs = 1
)

func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	tol := fs.Float64("tol", 0.10, "allowed slowdown fraction before failing")
	phaseTol := fs.Float64("phase-tol", 0.35, "allowed slowdown fraction for phase:<name> entries (single runs, noisier)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		usage()
	}
	old, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	fmt.Printf("comparing %s (%s) -> %s (%s), tolerance %.0f%% (%.0f%% for phases, %.0f%% for B/op and allocs/op)\n",
		fs.Arg(0), old.Rev, fs.Arg(1), cur.Rev, *tol*100, *phaseTol*100, memTol*100)
	regressed := gate(old.Benchmarks, cur.Benchmarks, "ns/op", *tol, *phaseTol, 0)
	for _, st := range []struct {
		unit     string
		old, cur map[string]float64
		slack    float64
	}{
		{"B/op", old.BytesPerOp, cur.BytesPerOp, memSlackBytes},
		{"allocs/op", old.AllocsPerOp, cur.AllocsPerOp, memSlackAllocs},
	} {
		if len(st.old) == 0 || len(st.cur) == 0 {
			fmt.Printf("  %s not recorded in both records: not compared\n", st.unit)
			continue
		}
		regressed += gate(st.old, st.cur, st.unit, memTol, memTol, st.slack)
	}
	if regressed > 0 {
		return fmt.Errorf("%d benchmark statistic(s) regressed beyond tolerance", regressed)
	}
	fmt.Println("no regressions beyond tolerance")
	return nil
}

// gate prints one statistic's comparison and returns how many benchmarks
// present in both records grew beyond their tolerance: by more than the
// fraction tol (phaseTol for phase entries) of the old value and by more
// than the absolute slack.
func gate(old, cur map[string]float64, unit string, tol, phaseTol, slack float64) int {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressed int
	for _, name := range names {
		newV := cur[name]
		oldV, ok := old[name]
		if !ok {
			fmt.Printf("  new      %-40s %14.0f %s\n", name, newV, unit)
			continue
		}
		t := tol
		if strings.HasPrefix(name, phasePrefix) {
			t = phaseTol
		}
		mark := "  ok      "
		switch {
		case newV > oldV*(1+t) && newV-oldV > slack:
			mark = "  REGRESS "
			regressed++
		case newV < oldV*(1-t) && oldV-newV > slack:
			mark = "  better  "
		}
		ratio := "  (new)"
		if oldV != 0 {
			ratio = fmt.Sprintf("(%.2fx)", newV/oldV)
		}
		fmt.Printf("%s%-40s %14.0f -> %14.0f %s %s\n", mark, name, oldV, newV, unit, ratio)
	}
	dropped := make([]string, 0, len(old))
	for name := range old {
		if _, ok := cur[name]; !ok {
			dropped = append(dropped, name)
		}
	}
	sort.Strings(dropped)
	for _, name := range dropped {
		fmt.Printf("  dropped %-40s %14.0f %s\n", name, old[name], unit)
	}
	return regressed
}

func load(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
