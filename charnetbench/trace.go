package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traced runs call the layers' public functions in-process and put
// the benchmark's own spans around those calls, on the same obs.Trace
// the program's measurement pipeline already reports into, so one span
// tree holds both. The program gains no tracing.

const (
	ledgerSlack  = 0.02 // shares must add up to the wall time within 2%
	probeRepeats = 20   // repetitions of each in-process micro-probe
	allocSample  = 6    // profiles in the seeded sim allocation sample
	warmRegens   = 10   // in-process warm regenerations per traced run
)

// tracedStore wraps the measurement store with benchmark spans.
type tracedStore struct {
	s    *mstore.Store
	tr   *obs.Trace
	hits []time.Duration
	puts []time.Duration
}

func (t *tracedStore) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, bool) {
	sp := t.tr.Span("mstore.get", "")
	ms, ok := t.s.Get(ps, m, opts)
	sp.End()
	if ok {
		t.hits = append(t.hits, sp.Duration())
	}
	return ms, ok
}

func (t *tracedStore) Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []core.Measurement) {
	sp := t.tr.Span("mstore.put", "")
	t.s.Put(ps, m, opts, ms)
	sp.End()
	t.puts = append(t.puts, sp.Duration())
}

// spanTimes collects the benchmark's own span durations by name.
type spanTimes map[string][]time.Duration

// span opens a benchmark span; on a nil trace it only times the call.
func (st spanTimes) span(tr *obs.Trace, name, detail string, f func() error) error {
	sp := tr.Span(name, detail)
	t0 := time.Now()
	err := f()
	sp.End()
	key := name
	if detail != "" {
		key += "." + detail
	}
	st[key] = append(st[key], time.Since(t0))
	return err
}

// regenerate is Table IV's pipeline, `charnet -full table4`, called
// layer by layer: the suite registry, one measurement per characterized
// suite, PCA and clustering, subsetting, and text rendering. The text
// must equal the CLI's.
func regenerate(ctx context.Context, lab *experiments.Lab, tr *obs.Trace, st spanTimes) ([]byte, *artifact.Artifact, error) {
	var out []byte
	var art *artifact.Artifact
	err := st.span(tr, "bench.table4", "", func() error {
		var defs []*workload.SuiteDef
		if err := st.span(tr, "workload.registry", "", func() error {
			for _, def := range lab.Suites() {
				if !def.Measurement.Sampled {
					defs = append(defs, def)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		res := &experiments.TableIVResult{Descriptions: map[string]string{}}
		for _, def := range defs {
			var ms []core.Measurement
			var ch *core.Characterization
			var names []string
			if err := st.span(tr, "experiments.measure", def.Wire, func() (err error) {
				ms, err = lab.MeasureSuite(ctx, def, machine.CoreI9())
				return err
			}); err != nil {
				return err
			}
			if err := st.span(tr, "analysis.characterize", "", func() (err error) {
				ch, err = core.Characterize(ms, 4, cluster.Average)
				return err
			}); err != nil {
				return err
			}
			_ = st.span(tr, "analysis.subset", "", func() error {
				names = ch.SubsetNames(ch.Subset(8))
				return nil
			})
			res.Columns = append(res.Columns, experiments.TableIVColumn{Wire: def.Wire, Title: def.Suite.String(), Names: names})
			for _, m := range ms {
				if m.Err == nil && m.Workload.Description != "" {
					res.Descriptions[m.Workload.Name] = m.Workload.Description
				}
			}
		}
		return st.span(tr, "artifact.render", "", func() error {
			art = res.Artifact()
			out = []byte(artifact.Text(art) + "\n")
			return nil
		})
	})
	return out, art, err
}

// coldRegen regenerates Table IV in-process on a fresh store, traced or
// not, and returns its wall time.
func coldRegen(e *env, r *recorder, ref []byte, traced bool) (time.Duration, *obs.Trace, *tracedStore, spanTimes, error) {
	dir, err := e.tempDir("inproc-store-")
	if err != nil {
		return 0, nil, nil, nil, err
	}
	store, err := mstore.Open(dir)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	lab := experiments.NewLab(experiments.Full())
	var tr *obs.Trace
	var ts *tracedStore
	if traced {
		tr = obs.New()
		store.Obs = tr
		lab.Obs = tr
		ts = &tracedStore{s: store, tr: tr}
		lab.Store = ts
	} else {
		lab.Store = store
	}
	st := spanTimes{}
	t0 := time.Now()
	out, _, err := regenerate(e.ctx, lab, tr, st)
	wall := time.Since(t0)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	phase := "in-process cold"
	if traced {
		phase += ", traced"
	}
	r.check(phase, sameBytes(out, ref, phase+" table4"))
	return wall, tr, ts, st, nil
}

// registryProbe times building the built-in registry: parsing every
// embedded suite spec, as workload.Builtin does once per process.
func registryProbe(e *env) (float64, error) {
	files, err := filepath.Glob(filepath.Join(e.root, "internal", "workload", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no built-in suite specs found: %v", err)
	}
	var docs [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		docs = append(docs, b)
	}
	var times []float64
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		for _, d := range docs {
			if _, err := workload.ParseSpec(d); err != nil {
				return 0, err
			}
		}
		times = append(times, float64(time.Since(t0))/1e6)
	}
	return median(times), nil
}

// allocProbe runs sim.Run serially on a seeded sample of the selectable
// suites' profiles and returns heap bytes and objects allocated per
// workload.
func allocProbe(e *env) (mb, allocs float64, err error) {
	var pool []workload.Profile
	for _, s := range selectSuites {
		def, _ := workload.Builtin().Lookup(s)
		pool = append(pool, def.Profiles()...)
	}
	rd := rng(e.seed, 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, j := range rd.Perm(len(pool))[:allocSample] {
		if _, err := sim.Run(pool[j], machine.CoreI9(), sim.Options{Instructions: experiments.Full().Instructions}); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(allocSample)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// storeEntryKB is the mean size of the store's entries.
func storeEntryKB(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("store %s holds no entries: %v", dir, err)
	}
	var total int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / float64(len(files)) / 1024, nil
}

func durMs(ds []time.Duration) float64 { return median(msOf(ds)) }

// traceCLI is cli-table4's traced run: untraced and traced in-process
// cold regenerations alternate (trace.overhead_frac compares their
// medians), the last traced one feeds the layer ledger, and warm
// in-process regenerations plus micro-probes time the remaining layers.
func traceCLI(e *env, r *recorder) error {
	ref, err := tableIVReference(e.root)
	if err != nil {
		return err
	}
	reg, err := registryProbe(e)
	if err != nil {
		return err
	}
	r.set("workload.registry_ms", reg)

	var plain, traced []time.Duration
	var tr *obs.Trace
	var ts *tracedStore
	var st spanTimes
	for i := 0; i < 2; i++ {
		w, _, _, _, err := coldRegen(e, r, ref, false)
		if err != nil {
			return err
		}
		plain = append(plain, w)
		w, tr, ts, st, err = coldRegen(e, r, ref, true)
		if err != nil {
			return err
		}
		traced = append(traced, w)
	}
	untracedS, tracedS := median(secondsOf(plain)), median(secondsOf(traced))
	r.set("trace.overhead_frac", tracedS/untracedS-1)

	spans, err := readSpans(tr)
	if err != nil {
		return err
	}
	led, err := buildLedger(spans)
	if err != nil {
		return err
	}
	wall := traced[len(traced)-1].Seconds()
	var sum float64
	for _, l := range ledgerLayers {
		r.set("ledger."+l+".self_s", led.self[l])
		r.set("ledger."+l+".share", led.wall[l]/wall)
		sum += led.wall[l]
	}
	recon := math.Abs(sum-wall) / wall
	r.set("ledger.wall_s", wall)
	r.set("ledger.reconcile_frac", recon)
	var reconErr error
	if recon > ledgerSlack {
		reconErr = fmt.Errorf("layer shares sum to %.4fs against %.4fs wall", sum, wall)
	}
	r.check("ledger reconciles", reconErr)

	for _, s := range selectSuites {
		r.set("experiments.measure_s."+s, median(secondsOf(st["experiments.measure."+s])))
	}
	r.set("sim.workloads", float64(led.count["sim"]))
	r.set("sim.prewarm_cpu_s", led.total["prewarm"])
	r.set("sim.run_cpu_s", led.total["run"])
	if led.total["run"] > 0 {
		r.set("sim.minstr_per_s", float64(tr.Counter("sim.instructions"))/led.total["run"]/1e6)
	}
	workers := float64(runtime.GOMAXPROCS(0))
	if led.total["measure"] > 0 {
		r.set("core.pool_utilization", led.total["sim"]/(workers*led.total["measure"]))
	}
	r.set("mstore.put_ms", durMs(ts.puts))
	kb, err := storeEntryKB(ts.s.Dir())
	if err != nil {
		return err
	}
	r.set("mstore.entry_kb", kb)

	// Warm regenerations from the traced cold run's store.
	warm := spanTimes{}
	var hits []time.Duration
	var art *artifact.Artifact
	for i := 0; i < warmRegens; i++ {
		wtr := obs.New()
		lab := experiments.NewLab(experiments.Full())
		lab.Obs = wtr
		wts := &tracedStore{s: ts.s, tr: wtr}
		lab.Store = wts
		var out []byte
		out, art, err = regenerate(e.ctx, lab, wtr, warm)
		if err != nil {
			return err
		}
		r.check("in-process warm", sameBytes(out, ref, "in-process warm table4"))
		hits = append(hits, wts.hits...)
	}
	r.set("mstore.get_hit_ms", durMs(hits))
	r.set("analysis.characterize_ms", durMs(warm["analysis.characterize"]))
	r.set("analysis.subset_ms", durMs(warm["analysis.subset"]))
	r.set("artifact.render_ms", durMs(warm["artifact.render"]))
	var js bytes.Buffer
	if err := artifact.WriteJSON(&js, []*artifact.Artifact{art}); err != nil {
		return err
	}
	r.set("artifact.json_kb", float64(js.Len())/1024)

	mb, allocs, err := allocProbe(e)
	if err != nil {
		return err
	}
	r.set("sim.alloc_mb_per_workload", mb)
	r.set("sim.allocs_per_workload", allocs)

	r.printf("untraced in-process cold: %.3fs (median of %d); traced: %.3fs; trace.overhead_frac %+.4f",
		untracedS, len(plain), tracedS, tracedS/untracedS-1)
	r.printf("ledger of the last traced cold regeneration (wall %.3fs, slack %.0f%%, shares sum to %.4fs):", wall, ledgerSlack*100, sum)
	r.printf("  %-12s %10s %8s", "layer", "self_s", "share")
	for _, l := range ledgerLayers {
		r.printf("  %-12s %10.4f %7.2f%%", l, led.self[l], 100*led.wall[l]/wall)
	}
	return nil
}
