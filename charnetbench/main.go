// Command charnetbench is charnet's benchmark. It builds nothing itself:
// run.sh builds cmd/charnet, cmd/charnetd and this program from the
// checkout, then runs
//
//	charnetbench -bin DIR --workload NAME --seed N --seconds S --trace 0|1
//
// from the checkout root. Each workload drives the real binaries with
// inputs drawn from the seed, checks every output against a reference,
// prints a human-readable report and, as the last line of stdout, one
// JSON object {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end metrics of BENCHMARK.json, measured
// with no tracing flags, their timings scaled to the reference host's
// speed (calib.go); with --trace 1 they are the per-layer metrics of a
// separate traced run. METRICS.md defines every metric on every
// workload and records why each workload exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// BENCHMARK.json order. METRICS.md gives each its meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"cold_cpu_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"makespan_s", "s"},
	{"heap_growth_b_per_req", "B"},
	{"peak_rss_mb", "MB"},
}

// mixDrivers are the experiment drivers serve-warm requests.
var mixDrivers = []string{"table3", "table4", "fig1", "fig5", "fig6", "fig8", "fig9", "fig10"}

// ledgerLayers are the rows of the traced cold-regeneration ledger.
var ledgerLayers = []string{
	"workload", "experiments", "core", "sim.prewarm", "sim.run", "sim.derive",
	"sim.other", "mstore", "analysis", "artifact", "bench",
}

// perLayer lists the metrics every workload reports with --trace 1, in
// BENCHMARK.json order. A workload that does not reach a layer reports 0
// for it; METRICS.md maps each metric to the end-to-end metric and
// workload it should move.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"workload.registry_ms", "ms"},
		{"experiments.measure_s.aspnet", "s"},
		{"experiments.measure_s.dotnet", "s"},
		{"experiments.measure_s.spec", "s"},
		{"sim.workloads", "count"},
		{"sim.prewarm_cpu_s", "s"},
		{"sim.run_cpu_s", "s"},
		{"sim.minstr_per_s", "Minstr/s"},
		{"sim.alloc_mb_per_workload", "MB"},
		{"sim.allocs_per_workload", "count"},
		{"core.pool_utilization", "ratio"},
		{"mstore.get_hit_ms", "ms"},
		{"mstore.put_ms", "ms"},
		{"mstore.entry_kb", "KB"},
		{"analysis.characterize_ms", "ms"},
		{"analysis.subset_ms", "ms"},
	}
	for _, d := range mixDrivers {
		ds = append(ds, metricDef{"experiments.driver_ms." + d, "ms"})
	}
	ds = append(ds,
		metricDef{"artifact.render_ms", "ms"},
		metricDef{"artifact.json_kb", "KB"},
		metricDef{"serve.request_p50_ms", "ms"},
		metricDef{"serve.queue_wait_p99_ms", "ms"},
		metricDef{"http.overhead_ms", "ms"},
		metricDef{"lab.memcache_hit_ratio", "ratio"},
		metricDef{"lab.singleflight_coalesced", "count"},
		metricDef{"serve.shed", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"ledger.wall_s", "s"},
		metricDef{"ledger.reconcile_frac", "ratio"},
	)
	for _, l := range ledgerLayers {
		ds = append(ds, metricDef{"ledger." + l + ".self_s", "s"}, metricDef{"ledger." + l + ".share", "ratio"})
	}
	return ds
}()

// workloadDef is one named, seeded workload; BENCHMARK.json and
// METRICS.md record why each exists.
type workloadDef struct {
	name  string
	run   func(e *env, r *recorder) error // end-to-end, untraced
	trace func(e *env, r *recorder) error // per-layer, traced
}

var workloads = []workloadDef{
	{"cli-table4", runCLI, traceCLI},
	{"serve-warm", runServeWarm, traceServeWarm},
	{"serve-select", runServeSelect, traceServeSelect},
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for every input the workload draws")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	bin := flag.String("bin", "", "directory holding the built charnet and charnetd")
	writeRefs := flag.String("write-refs", "", "regenerate the serve-select reference vectors into this file and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A reader that went away must not kill the run before it removes its
	// work directory: with SIGPIPE caught, writes to a closed stdout or
	// stderr fail instead.
	signal.Notify(make(chan os.Signal, 1), syscall.SIGPIPE)
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "charnetbench: %v\n", err)
		return 1
	}
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "charnetbench: -bin is required (run it through charnetbench/run.sh)")
		return 2
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "charnetbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "charnetbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{ctx: ctx, root: root, bin: *bin, work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	if *writeRefs != "" {
		if err := writeSelectRefs(e, *writeRefs); err != nil {
			fmt.Fprintf(os.Stderr, "charnetbench: %v\n", err)
			return 1
		}
		return 0
	}

	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "charnetbench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	r := newRecorder(*trace == 1)
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	fmt.Printf("charnetbench: workload %s, seed %d, %ds, trace %d\n", w.name, *seed, *seconds, *trace)
	if err := run(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "charnetbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := r.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "charnetbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(line)
	if r.failed() > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// phaseCount counts the checked operations of one phase.
type phaseCount struct {
	name      string
	attempted int
	failed    int
	firstErr  string
}

// recorder collects a run's metrics, per-phase request counts and the
// human-readable report.
type recorder struct {
	traced  bool
	metrics map[string]float64
	phases  []*phaseCount
}

func newRecorder(traced bool) *recorder {
	r := &recorder{traced: traced, metrics: map[string]float64{}}
	if traced {
		// Layers a workload does not reach read 0 (METRICS.md).
		for _, d := range perLayer {
			r.metrics[d.name] = 0
		}
	}
	return r
}

func (r *recorder) set(name string, v float64) { r.metrics[name] = v }

// check records one checked operation of a phase; a non-nil problem
// counts it as failed.
func (r *recorder) check(phase string, problem error) {
	var p *phaseCount
	for _, q := range r.phases {
		if q.name == phase {
			p = q
		}
	}
	if p == nil {
		p = &phaseCount{name: phase}
		r.phases = append(r.phases, p)
	}
	p.attempted++
	if problem != nil {
		p.failed++
		if p.firstErr == "" {
			p.firstErr = problem.Error()
		}
	}
}

func (r *recorder) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted, failed
}

func (r *recorder) failed() int {
	_, f := r.totals()
	return f
}

// printTails adds a latency distribution to the report: p50, p90 and
// p99 where at least minBeyond samples lie beyond them, and the highest
// percentile of that ladder that qualifies. The tails are reported, not
// gated (METRICS.md says why).
func (r *recorder) printTails(what string, ms []float64) {
	line := fmt.Sprintf("%s latency, %d samples:", what, len(ms))
	for _, p := range []float64{50, 90, 99} {
		if v, err := tail(ms, p); err == nil {
			line += fmt.Sprintf(" p%g %.4g ms", p, v)
		} else {
			line += fmt.Sprintf(" p%g n/a", p)
		}
	}
	if hp, ok := highestPercentile(len(ms)); ok {
		line += fmt.Sprintf("; highest with >=%d beyond: p%g %.4g ms", minBeyond, hp, quantile(ms, hp/100))
	}
	r.printf("%s", line)
}

// printCalibration adds the run's calibration samples to the report.
func (r *recorder) printCalibration(c *calibrator) {
	n, wall, cpu, lo, hi := c.summary()
	r.printf("calibration: %d samples, median %.3f ms wall (range %.3f-%.3f) and %.3f ms CPU; reference %.0f and %.0f ms",
		n, wall, lo, hi, cpu, float64(calWallRef)/1e6, float64(calCPURef)/1e6)
}

// printf adds a line to the human-readable report.
func (r *recorder) printf(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

// finish prints the per-phase counts and the metric table, and returns
// the result line. Every metric the mode promises must be present and
// finite.
func (r *recorder) finish() (string, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	fmt.Println("  phase                       attempted  succeeded  failed")
	for _, p := range r.phases {
		fmt.Printf("  %-27s %9d  %9d  %6d\n", p.name, p.attempted, p.attempted-p.failed, p.failed)
		if p.firstErr != "" {
			fmt.Printf("    first failure: %s\n", p.firstErr)
		}
	}
	attempted, failed := r.totals()
	if attempted == 0 {
		return "", fmt.Errorf("no checked operation was attempted")
	}
	fmt.Printf("  %-27s %.6f (%d of %d)\n", "error_rate", float64(failed)/float64(attempted), failed, attempted)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || v != v || v > 1e300 || v < -1e300 {
			return "", fmt.Errorf("metric %s missing or not finite", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(r.metrics) != len(defs) {
		var extra []string
		for k := range r.metrics {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("metrics outside BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	return string(b), err
}
