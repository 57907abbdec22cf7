// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result that
// produces a typed artifact (internal/artifact); String() on every result
// is the artifact's text rendering, so the CLI, the examples, the
// benchmarks and the tests all regenerate the same output from one code
// path, and the JSON/CSV renderers expose the same data structurally.
// Drivers register themselves in registry.go; cmd/charnet's dispatch
// table, usage string and `all` loop are generated from that registry.
//
// Drivers share a Lab, which caches suite measurements per machine: most
// figures consume the same measured vectors, and the .NET suite alone has
// up to 2906 workloads. Every driver takes a context; cancelling it
// aborts in-flight suite measurement within one workload's sim time.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config sets the fidelity of the reproduction runs.
type Config struct {
	// Instructions per workload per core. Higher = steadier counters.
	Instructions uint64
	// DotNetIndividualLimit caps how many of the 2906 individual .NET
	// microbenchmarks the subset-B experiments use (0 = all).
	DotNetIndividualLimit int
	// CoreSweep is the core-count axis of Figs 11-12.
	CoreSweep []int
	// SampleInterval (cycles) for the Fig 13 correlation runs.
	SampleInterval float64
	// Workers bounds the measurement worker pool (0 = GOMAXPROCS). Purely
	// a scheduling knob: results are identical for any value.
	Workers int
}

// Quick returns a low-fidelity configuration for tests.
func Quick() Config {
	return Config{
		Instructions:          6000,
		DotNetIndividualLimit: 220,
		CoreSweep:             []int{1, 4, 16},
		SampleInterval:        2500,
	}
}

// Full returns the configuration used for the recorded EXPERIMENTS.md
// numbers: every workload, more instructions.
func Full() Config {
	return Config{
		Instructions:          30000,
		DotNetIndividualLimit: 0,
		CoreSweep:             []int{1, 2, 4, 8, 16},
		SampleInterval:        4000,
	}
}

// Lab is the drivers' one measurement path: it measures suites and
// driver configurations and caches each measurement under its key.
type Lab struct {
	Cfg Config

	// Registry resolves suite wire names to their definitions. Nil means
	// the built-in registry (the paper's suites); `charnet -suite-spec`
	// and the daemon install a registry extended with external suites.
	// Set it before first use — it must not change once measuring.
	Registry *workload.Registry

	// Store, when set, persists measurements across processes (the
	// `charnet -cache DIR` flag wires in an mstore.Store). The in-memory
	// map below still fronts it within a process.
	Store core.MeasurementCache

	// Obs, when set, traces measurements (one "measure" span each,
	// per-workload sim spans beneath) and counts singleflight coalescing.
	// Nil disables all instrumentation at ~zero cost.
	Obs *obs.Trace

	mu    sync.Mutex
	cells map[measureKey]*cell
}

// measureKey is the identity of one Lab measurement: which workloads of
// which suite, on which machine, under which simulator options. It is
// comparable, so a memory-cache hit needs no formatting or hashing.
type measureKey struct {
	suite string // registry wire name
	limit int    // stride-sample size of a sampled suite; 0 = unsampled
	// names holds a named subset's members in order (all empty for the
	// whole suite). A fixed array keeps hits allocation-free; a subset
	// longer than the array NUL-joins its tail into the last slot.
	names   [8]string
	machine string
	opts    sim.Options // Obs cleared: tracing is not a simulation input
}

// cell is the Lab's singleflight cell: the first caller for a key creates
// it and measures; later callers wait on done and share the measurements
// — or the error, when the leader's context was cancelled mid-flight.
type cell struct {
	done chan struct{}
	ms   []core.Measurement
	err  error
}

// NewLab builds a Lab with the given fidelity.
func NewLab(cfg Config) *Lab {
	return &Lab{Cfg: cfg, cells: make(map[measureKey]*cell)}
}

// measure is the Lab's one measurement path: every suite, subset and
// driver configuration is measured here, through core.Measure with the
// Lab's store and worker count, under a "measure" span. names narrows the
// suite to the named members, in that order (missing names are skipped);
// without names a sampled suite is stride-sampled to the configured
// limit. The measurement runs at most once per key: concurrent callers
// wait for the leader ("lab.singleflight.coalesced" plus the
// "measure.singleflight.wait" histogram), later ones are served from
// memory ("lab.memcache.hits"), and a failed (in practice, cancelled)
// measurement is evicted so later callers retry.
func (l *Lab) measure(ctx context.Context, def *workload.SuiteDef, names []string, m *machine.Config, opts sim.Options) ([]core.Measurement, error) {
	opts.Obs = nil
	key := measureKey{suite: def.Wire, machine: m.Name, opts: opts}
	last := len(key.names) - 1
	copy(key.names[:last], names)
	if len(names) > last {
		key.names[last] = strings.Join(names[last:], "\x00")
	}
	if n := l.Cfg.DotNetIndividualLimit; len(names) == 0 && def.Measurement.Sampled && n > 0 && n < def.Len() {
		key.limit = n
	}
	tr := l.Obs
	l.mu.Lock()
	if e, ok := l.cells[key]; ok {
		l.mu.Unlock()
		select {
		case <-e.done:
			tr.Add("lab.memcache.hits", 1)
		default:
			tr.Add("lab.singleflight.coalesced", 1)
			waitStart := tr.Now()
			<-e.done
			tr.Observe("measure.singleflight.wait", tr.Now().Sub(waitStart))
		}
		return e.ms, e.err
	}
	e := &cell{done: make(chan struct{})}
	l.cells[key] = e
	l.mu.Unlock()

	ps := selectProfiles(def, names, key.limit)
	span := tr.Span("measure", fmt.Sprintf("%s/%s/%d", def.Wire, m.Name, len(ps)))
	opts.Obs = span
	e.ms, e.err = core.Measure(ctx, l.Store, ps, m, opts, l.Cfg.Workers)
	span.End()
	tr.Observe("measure.latency", span.Duration())
	if e.err != nil {
		// Evict before releasing waiters: a failed cell must not poison
		// the key. A caller racing the eviction either holds e (and sees
		// the error) or misses the map and measures fresh — both correct.
		l.mu.Lock()
		delete(l.cells, key)
		l.mu.Unlock()
	}
	close(e.done)
	return e.ms, e.err
}

// selectProfiles builds the workload list of one measurement: the named
// members of def in the given order (skipping names it lacks), or else
// every workload of def, stride-sampled to limit when limit > 0. The
// stride sample spans the suite's categories rather than taking a
// prefix, and holds exactly limit workloads.
func selectProfiles(def *workload.SuiteDef, names []string, limit int) []workload.Profile {
	if len(names) > 0 {
		var ps []workload.Profile
		for _, n := range names {
			if p, ok := def.Lookup(n); ok {
				ps = append(ps, p)
			}
		}
		return ps
	}
	ps := def.Profiles()
	if limit > 0 {
		stride := len(ps) / limit // >= 1: limit < len(ps)
		for i := 0; i < limit; i++ {
			ps[i] = ps[i*stride] // i*stride >= i: no slot is read after it is overwritten
		}
		ps = ps[:limit]
	}
	return ps
}

// registry resolves the Lab's suite registry, defaulting to the
// built-in suites.
func (l *Lab) registry() *workload.Registry {
	if l.Registry != nil {
		return l.Registry
	}
	return workload.Builtin()
}

// builtin resolves one of the paper's suites, whose subsets the figure
// drivers measure. Every registry holds the built-in suites.
func (l *Lab) builtin(wire string) *workload.SuiteDef {
	def, _ := l.registry().Lookup(wire)
	return def
}

// MeasureSuite measures one registered suite on m, honoring the suite's
// measurement policy: a nonzero instruction divisor scales the
// per-workload budget (short microbenchmarks get a slice of it), and
// sampled suites honor the configured individual-workload limit via a
// deterministic stride sample. Results share the Lab's singleflight and
// caches; a memory hit allocates nothing.
func (l *Lab) MeasureSuite(ctx context.Context, def *workload.SuiteDef, m *machine.Config) ([]core.Measurement, error) {
	opts := sim.Options{Instructions: l.Cfg.Instructions}
	if d := def.Measurement.InstructionsDivisor; d > 0 {
		opts.Instructions = l.Cfg.Instructions/d + def.Measurement.InstructionsExtra
	}
	return l.measure(ctx, def, nil, m, opts)
}

// measureWire measures a suite by wire name through the registry.
func (l *Lab) measureWire(ctx context.Context, wire string, m *machine.Config) ([]core.Measurement, error) {
	def, ok := l.registry().Lookup(wire)
	if !ok {
		return nil, fmt.Errorf("unknown suite %q (want one of %v)", wire, l.SuiteNames())
	}
	return l.MeasureSuite(ctx, def, m)
}

// DotNetCategories measures the 44 .NET category archetypes on m.
func (l *Lab) DotNetCategories(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.measureWire(ctx, "dotnet", m)
}

// DotNetIndividual measures the individual .NET microbenchmarks on m,
// honoring the configured limit.
func (l *Lab) DotNetIndividual(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.measureWire(ctx, "dotnet-individual", m)
}

// AspNet measures the 53 ASP.NET benchmarks on m at their natural core
// counts.
func (l *Lab) AspNet(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.measureWire(ctx, "aspnet", m)
}

// Spec measures the SPEC CPU17 catalog on m.
func (l *Lab) Spec(ctx context.Context, m *machine.Config) ([]core.Measurement, error) {
	return l.measureWire(ctx, "spec", m)
}

// TableIVDotNetSubset is the paper's chosen 8-category .NET subset.
var TableIVDotNetSubset = []string{
	"System.Runtime", "System.Threading", "System.ComponentModel",
	"System.Linq", "System.Net", "System.MathBenchmarks",
	"System.Diagnostics", "CscBench",
}

// TableIVAspNetSubset is the paper's chosen 8-element ASP.NET subset.
var TableIVAspNetSubset = []string{
	"DbFortunesRaw", "MvcDbFortunesRaw", "MvcDbMultiUpdateRaw", "Plaintext",
	"Json", "CopyToAsync", "MvcJsonNetOutput2M", "MvcJsonNetInput2M",
}

// TableIVSpecSubset is the paper's chosen 8-element SPEC CPU17 subset.
var TableIVSpecSubset = []string{
	"mcf", "cactuBSSN", "wrf", "gcc", "omnetpp", "perlbench", "xalancbmk", "bwaves",
}

// FilterMeasurements returns the measurements for the named workloads,
// in the given order, skipping names the suite does not contain. The
// Table IV drivers use it to pick the paper's subsets, and serving
// requests to pick the workloads they ask for.
func FilterMeasurements(ms []core.Measurement, names []string) []core.Measurement {
	byName := make(map[string]core.Measurement, len(ms))
	for _, m := range ms {
		byName[m.Workload.Name] = m
	}
	out := make([]core.Measurement, 0, len(names))
	for _, n := range names {
		if m, ok := byName[n]; ok {
			out = append(out, m)
		}
	}
	return out
}
