package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// prom is a parsed Prometheus text exposition: series (name plus label
// set, as printed) to value.
type prom map[string]float64

func parseProm(text string) prom {
	p := prom{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// cumulative returns a histogram's cumulative bucket counts by upper
// bound in seconds; the exposition lists only buckets that hold samples.
func (p prom) cumulative(base string) map[float64]float64 {
	out := map[float64]float64{}
	prefix := base + `_bucket{le="`
	for k, v := range p {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le := strings.TrimSuffix(rest, `"}`)
			if le == "+Inf" {
				continue
			}
			if b, err := strconv.ParseFloat(le, 64); err == nil {
				out[b] = v
			}
		}
	}
	return out
}

// deltaQuantile is the q-quantile, in milliseconds, of the samples a
// histogram gained between two scrapes, interpolated within its bucket;
// 0 when it gained none.
func deltaQuantile(before, after prom, base string, q float64) float64 {
	b0, b1 := before.cumulative(base), after.cumulative(base)
	var les []float64
	for le := range b1 {
		les = append(les, le)
	}
	sort.Float64s(les)
	at := func(m map[float64]float64, le float64) float64 {
		best, bestLE := 0.0, -1.0
		for l, v := range m {
			if l <= le && l > bestLE {
				best, bestLE = v, l
			}
		}
		return best
	}
	total := after[base+"_count"] - before[base+"_count"]
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := at(b1, le) - at(b0, le)
		if cum >= rank {
			frac := 1.0
			if cum > prevCum {
				frac = (rank - prevCum) / (cum - prevCum)
			}
			return 1000 * (prevLE + frac*(le-prevLE))
		}
		prevLE, prevCum = le, cum
	}
	return 1000 * prevLE
}

func (p prom) delta(before prom, name string) float64 { return p[name] - before[name] }

const (
	histRequest   = "charnet_serve_request_latency_seconds"
	histQueueWait = "charnet_serve_queue_wait_seconds"
	histSimWork   = "charnet_sim_workload_latency_seconds"
	histPrewarm   = "charnet_sim_phase_prewarm_seconds"
	histRun       = "charnet_sim_phase_run_seconds"
	histMeasure   = "charnet_measure_latency_seconds"
	histPut       = "charnet_mstore_put_latency_seconds"
)

// serveLayers sets the serve, lab and sim metrics from the /metrics
// series a daemon gained between two scrapes, and the client-observed
// median over the same requests.
func serveLayers(r *recorder, before, after prom, clientP50 float64) {
	serverP50 := deltaQuantile(before, after, histRequest, 0.5)
	r.set("serve.request_p50_ms", serverP50)
	r.set("serve.queue_wait_p99_ms", deltaQuantile(before, after, histQueueWait, 0.99))
	r.set("http.overhead_ms", clientP50-serverP50)
	hits := after.delta(before, "charnet_lab_memcache_hits_total")
	coalesced := after.delta(before, "charnet_lab_singleflight_coalesced_total")
	measured := after.delta(before, histMeasure+"_count")
	if hits+coalesced+measured > 0 {
		r.set("lab.memcache_hit_ratio", hits/(hits+coalesced+measured))
	}
	r.set("lab.singleflight_coalesced", coalesced)
	r.set("serve.shed", after.delta(before, "charnet_serve_shed_queue_total")+
		after.delta(before, "charnet_serve_shed_ratelimit_total")+
		after.delta(before, "charnet_serve_shed_draining_total"))
	r.set("sim.workloads", after.delta(before, histSimWork+"_count"))
	r.set("sim.prewarm_cpu_s", after.delta(before, histPrewarm+"_sum"))
	runS := after.delta(before, histRun+"_sum")
	r.set("sim.run_cpu_s", runS)
	if runS > 0 {
		r.set("sim.minstr_per_s", after.delta(before, "charnet_sim_instructions_total")/runS/1e6)
	}
	if m := after.delta(before, histMeasure+"_sum"); m > 0 && after["charnet_pool_workers"] > 0 {
		r.set("core.pool_utilization", after.delta(before, histSimWork+"_sum")/(after["charnet_pool_workers"]*m))
	}
	if n := after.delta(before, histPut+"_count"); n > 0 {
		r.set("mstore.put_ms", 1000*after.delta(before, histPut+"_sum")/n)
	}
}

func scrape(cl *client, d *daemon) (prom, error) {
	st, body, _, err := cl.get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	if st != 200 {
		return nil, fmt.Errorf("scrape /metrics: status %d", st)
	}
	return parseProm(string(body)), nil
}

// traceServeWarm is serve-warm's traced run: one set-up daemon under the
// seeded mix for half the run's seconds, read through /metrics, then the
// mix drivers, analysis and rendering timed in-process on a warmed
// quick Lab.
func traceServeWarm(e *env, r *recorder) error {
	reg, err := registryProbe(e)
	if err != nil {
		return err
	}
	r.set("workload.registry_ms", reg)
	cl := newClient(e.ctx)
	mix := warmMix(e.seed)
	driverRef, err := driverRefs(e)
	if err != nil {
		return err
	}
	w, err := setUpWarm(e, r, cl, mix, driverRef)
	if err != nil {
		return err
	}
	defer w.d.kill()
	base := w.d.url("")
	before, err := scrape(cl, w.d)
	if err != nil {
		return err
	}
	var lats []time.Duration
	t0 := time.Now()
	for k := 0; time.Since(t0) < e.seconds/2; k++ {
		reqs := warmSchedule(e.seed, mix, k)
		reps, _ := cl.closedLoop(base, reqs)
		for i, rep := range reps {
			r.check("traffic", checkWarmReply(rep, reqs[i], w))
			lats = append(lats, rep.lat)
		}
	}
	after, err := scrape(cl, w.d)
	if err != nil {
		return err
	}
	if err := w.d.stop(); err != nil {
		return err
	}
	serveLayers(r, before, after, median(msOf(lats)))

	lab := experiments.NewLab(experiments.Quick())
	var render, jsonKB []float64
	for _, name := range mixDrivers {
		d, ok := experiments.DriverByName(name)
		if !ok {
			return fmt.Errorf("no driver %s", name)
		}
		var runs []time.Duration
		for i := 0; i <= probeRepeats; i++ {
			t := time.Now()
			res, err := d.Run(e.ctx, lab)
			if err != nil {
				return err
			}
			if i > 0 { // the first run measures; the rest are warm
				runs = append(runs, time.Since(t))
			}
			var b bytes.Buffer
			t = time.Now()
			if err := artifact.WriteJSON(&b, []*artifact.Artifact{res.Artifact()}); err != nil {
				return err
			}
			if i > 0 {
				render = append(render, float64(time.Since(t))/1e6)
			}
			if i == 0 {
				jsonKB = append(jsonKB, float64(b.Len())/1024)
				r.check("in-process driver", sameBytes(b.Bytes(), driverRef["/v1/drivers/"+name], name+" vs charnet -format json"))
			}
		}
		r.set("experiments.driver_ms."+name, durMs(runs))
	}
	r.set("artifact.render_ms", median(render))
	r.set("artifact.json_kb", mean(jsonKB))

	ms, err := lab.AspNet(e.ctx, machine.CoreI9())
	if err != nil {
		return err
	}
	var char, sub []time.Duration
	for i := 0; i < probeRepeats; i++ {
		t := time.Now()
		ch, err := core.Characterize(ms, 4, cluster.Average)
		if err != nil {
			return err
		}
		char = append(char, time.Since(t))
		t = time.Now()
		_ = ch.SubsetNames(ch.Subset(8))
		sub = append(sub, time.Since(t))
	}
	r.set("analysis.characterize_ms", durMs(char))
	r.set("analysis.subset_ms", durMs(sub))
	r.printf("traffic: %d requests; server p50 %.3fms vs client p50 %.3fms", len(lats),
		r.metrics["serve.request_p50_ms"], median(msOf(lats)))
	return nil
}

// traceServeSelect is serve-select's traced run: a few rounds, each
// read through the fresh daemon's /metrics before it drains.
func traceServeSelect(e *env, r *recorder) error {
	reg, err := registryProbe(e)
	if err != nil {
		return err
	}
	r.set("workload.registry_ms", reg)
	refs, err := loadSelectRefs(e.root)
	if err != nil {
		return err
	}
	cl := newClient(e.ctx)
	keys := selectKeys()
	const rounds = 3
	sums := map[string]float64{}
	var entryKB []float64
	for k := 0; k < rounds; k++ {
		rd, err := runSelectRound(e, r, cl, refs, keys, k, true)
		if err != nil {
			return err
		}
		rr := newRecorder(true)
		serveLayers(rr, prom{}, rd.metrics, median(msOf(rd.lats)))
		for name, v := range rr.metrics {
			sums[name] += v
		}
		entryKB = append(entryKB, rd.entryKB)
	}
	for name, v := range sums {
		if _, ok := r.metrics[name]; ok && v != 0 {
			r.set(name, v/rounds)
		}
	}
	r.set("mstore.entry_kb", median(entryKB))
	r.printf("%d rounds of %d requests, /metrics read at the end of each; per-round means", rounds, selectBatch)
	return nil
}
