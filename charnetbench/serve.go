package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/artifact"
)

const (
	warmSetups     = 7  // daemons set up per serve-warm run, for setup_s
	minSelectRound = 12 // serve-select rounds per run, at least
)

// replyProblem turns a transport error or non-200 status into a failed
// check.
func replyProblem(rep reply) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status != 200 {
		return fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	return nil
}

// driverRefs captures `charnet -format json <driver>` for every mix
// driver from the same build, sharing one quick store so the captures
// do not each simulate.
func driverRefs(e *env) (map[string][]byte, error) {
	dir, err := e.tempDir("ref-store-")
	if err != nil {
		return nil, err
	}
	refs := map[string][]byte{}
	for _, d := range mixDrivers {
		p, err := e.run("charnet", "-cache", dir, "-format", "json", d)
		if err != nil {
			return nil, err
		}
		refs["/v1/drivers/"+d] = p.stdout
	}
	return refs, nil
}

// warmDaemon is one serve-warm set-up: a fresh quick daemon on an empty
// store, answering every distinct mix request once.
type warmDaemon struct {
	d      *daemon
	setup  time.Duration // launch until the last warm-up reply
	cold   time.Duration // the warm-up requests alone
	cpu    time.Duration // daemon CPU at the end of warm-up
	rss    int64         // daemon VmHWM at the end of warm-up
	bodies map[request][]byte
}

func setUpWarm(e *env, r *recorder, cl *client, mix []request, driverRef map[string][]byte) (*warmDaemon, error) {
	dir, err := e.tempDir("warm-store-")
	if err != nil {
		return nil, err
	}
	d, err := e.startDaemon(cl, dir)
	if err != nil {
		return nil, err
	}
	w := &warmDaemon{d: d, bodies: map[request][]byte{}}
	for _, req := range mix {
		st, body, _, err := cl.do(d.url(""), req)
		problem := replyProblem(reply{status: st, body: body, err: err})
		if ref, ok := driverRef[req.path]; ok && problem == nil {
			problem = sameBytes(body, ref, req.path+" vs charnet -format json")
		}
		r.check("setup: warm-up", problem)
		w.bodies[req] = body
	}
	done := time.Now()
	w.setup = done.Sub(d.launch)
	w.cold = done.Sub(d.healthy)
	if w.cpu, err = d.cpu(); err != nil {
		d.kill()
		return nil, err
	}
	if w.rss, err = d.peakRSS(); err != nil {
		d.kill()
		return nil, err
	}
	return w, nil
}

// checkWarmReply gates one serve-warm reply: drivers must match the CLI
// bytes, measures their own warm-up bytes.
func checkWarmReply(rep reply, req request, w *warmDaemon) error {
	if p := replyProblem(rep); p != nil {
		return p
	}
	return sameBytes(rep.body, w.bodies[req], req.path+" vs its warm-up reply")
}

// runServeWarm is serve-warm: set up a daemon, then drive seeded batches
// of the mix at it from two closed-loop callers for the run's seconds,
// with further set-ups of fresh daemons spread over that window and a
// calibration sample after every batch and set-up.
func runServeWarm(e *env, r *recorder) error {
	cl := newClient(e.ctx)
	mix := warmMix(e.seed)
	driverRef, err := driverRefs(e)
	if err != nil {
		return err
	}
	var c calibrator
	iv := c.sample()
	var setups, colds, cpus []scaled
	var rss []float64
	setUp := func() (*warmDaemon, error) {
		w, err := setUpWarm(e, r, cl, mix, driverRef)
		if err != nil {
			return nil, err
		}
		setups = append(setups, scaled{w.setup, iv})
		colds = append(colds, scaled{w.cold, iv})
		cpus = append(cpus, scaled{w.cpu, iv})
		rss = append(rss, float64(w.rss))
		return w, nil
	}
	w, err := setUp()
	if err != nil {
		return err
	}
	defer w.d.kill()
	base := w.d.url("")
	iv = c.sample()

	heap0, err := w.d.heapAlloc(cl)
	if err != nil {
		return err
	}
	// Set-ups are spread over the traffic window, so they sample the same
	// host conditions as the traffic rather than one moment of them. The
	// serving daemon idles while another is set up.
	var lats, batches []scaled
	t0 := time.Now()
	for k := 0; time.Since(t0) < e.seconds || len(setups) < warmSetups; k++ {
		if len(setups) < warmSetups && time.Since(t0) >= time.Duration(len(setups))*e.seconds/warmSetups {
			o, err := setUp()
			if err != nil {
				return err
			}
			if err := o.d.stop(); err != nil {
				return err
			}
			iv = c.sample()
		}
		reqs := warmSchedule(e.seed, mix, k)
		reps, wall := cl.closedLoop(base, reqs)
		for i, rep := range reps {
			r.check("traffic", checkWarmReply(rep, reqs[i], w))
			lats = append(lats, scaled{rep.lat, iv})
		}
		batches = append(batches, scaled{wall, iv})
		iv = c.sample()
	}
	heap1, err := w.d.heapAlloc(cl)
	if err != nil {
		return err
	}
	if err := w.d.stop(); err != nil {
		return err
	}

	ms := scale(c.wallSeconds(lats), 1e3)
	r.set("setup_s", median(c.wallSeconds(setups)))
	r.set("cold_s", median(c.wallSeconds(colds)))
	r.set("cold_cpu_s", median(c.cpuSeconds(cpus)))
	r.set("p50_ms", median(ms))
	r.set("throughput_rps", float64(len(lats))/sum(c.wallSeconds(batches)))
	r.set("makespan_s", median(c.wallSeconds(batches)))
	r.set("heap_growth_b_per_req", float64(heap1-heap0)/float64(len(lats)))
	r.set("peak_rss_mb", mean(rss)/1e6)
	r.printTails("request", ms)
	r.printf("raw, unscaled medians: setup %.6g s, cold %.6g s, cold CPU %.6g s, request %.6g ms, batch %.6g s, throughput %.6g 1/s",
		median(raw(setups)), median(raw(colds)), median(raw(cpus)), 1e3*median(raw(lats)),
		median(raw(batches)), float64(len(lats))/sum(raw(batches)))
	r.printCalibration(&c)
	r.printf("set-up: %d daemons, %d warm-up requests each; traffic: %d requests in %d batches of %d by %d callers",
		len(setups), len(mix), len(lats), len(batches), warmBatch, clients)
	return nil
}

// selectRefs maps selectKey.String() to the reference metric row.
type selectRefs map[string]json.RawMessage

const selectRefsFile = "select_refs.json"

func loadSelectRefs(root string) (selectRefs, error) {
	data, err := os.ReadFile(filepath.Join(root, "charnetbench", selectRefsFile))
	if err != nil {
		return nil, err
	}
	var refs selectRefs
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", selectRefsFile, err)
	}
	// Replies are compared compacted; the file is indented for reading.
	for k, row := range refs {
		var buf bytes.Buffer
		if err := json.Compact(&buf, row); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", selectRefsFile, k, err)
		}
		refs[k] = buf.Bytes()
	}
	return refs, nil
}

// measureRows validates a measure reply with artifact.CheckJSON and
// returns its table rows, compacted, keyed by workload name.
func measureRows(body []byte) (map[string]json.RawMessage, error) {
	if _, _, problems := artifact.CheckJSON(bytes.NewReader(body)); len(problems) > 0 {
		return nil, fmt.Errorf("artifact check: %s", strings.Join(problems, "; "))
	}
	var arts []struct {
		Payloads []struct {
			Kind string `json:"kind"`
			Data struct {
				Rows []json.RawMessage `json:"rows"`
			} `json:"data"`
		} `json:"payloads"`
	}
	if err := json.Unmarshal(body, &arts); err != nil {
		return nil, err
	}
	rows := map[string]json.RawMessage{}
	for _, a := range arts {
		for _, p := range a.Payloads {
			if p.Kind != "table" {
				continue
			}
			for _, row := range p.Data.Rows {
				var cells []json.RawMessage
				if err := json.Unmarshal(row, &cells); err != nil || len(cells) == 0 {
					return nil, fmt.Errorf("malformed row %s", row)
				}
				var name string
				if err := json.Unmarshal(cells[0], &name); err != nil {
					return nil, fmt.Errorf("row without a workload name: %s", row)
				}
				var buf bytes.Buffer
				if err := json.Compact(&buf, row); err != nil {
					return nil, err
				}
				rows[name] = buf.Bytes()
			}
		}
	}
	return rows, nil
}

// checkSelectReply gates one serve-select reply: a valid artifact
// carrying exactly the requested row, equal to its reference.
func checkSelectReply(rep reply, k selectKey, refs selectRefs) error {
	if p := replyProblem(rep); p != nil {
		return p
	}
	rows, err := measureRows(rep.body)
	if err != nil {
		return err
	}
	row, ok := rows[k.workload]
	if len(rows) != 1 || !ok {
		return fmt.Errorf("%s: want exactly the requested row, got %d rows", k, len(rows))
	}
	if !bytes.Equal(row, refs[k.String()]) {
		return fmt.Errorf("%s: row differs from the reference vector", k)
	}
	return nil
}

func selectRequests(keys []selectKey) []request {
	reqs := make([]request, len(keys))
	for i, k := range keys {
		reqs[i] = request{path: "/v1/measure", body: measureBody(k.suite, k.machine, []string{k.workload})}
	}
	return reqs
}

// selectRound is one serve-select round on a fresh daemon.
type selectRound struct {
	setup, cold, makespan, cpu time.Duration
	lats                       []time.Duration
	heapPerReq                 float64
	rss                        int64
	metrics                    prom    // /metrics right after the cold batch, when traced
	entryKB                    float64 // mean store entry size, when traced
}

func runSelectRound(e *env, r *recorder, cl *client, refs selectRefs, keys []selectKey, k int, traced bool) (*selectRound, error) {
	batch := selectSchedule(e.seed, keys, k)
	reqs := selectRequests(batch)
	dir, err := e.tempDir("select-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := e.startDaemon(cl, dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	out := &selectRound{setup: d.healthy.Sub(d.launch)}
	heap0, err := d.heapAlloc(cl)
	if err != nil {
		return nil, err
	}
	base := d.url("")
	reps, wall := cl.closedLoop(base, reqs)
	out.cold = time.Since(d.launch)
	out.makespan = wall
	for i, rep := range reps {
		r.check("cold round", checkSelectReply(rep, batch[i], refs))
		out.lats = append(out.lats, rep.lat)
	}
	if traced {
		if out.metrics, err = scrape(cl, d); err != nil {
			return nil, err
		}
		if out.entryKB, err = storeEntryKB(dir); err != nil {
			return nil, err
		}
	}
	if out.cpu, err = d.cpu(); err != nil {
		return nil, err
	}
	heap1, err := d.heapAlloc(cl)
	if err != nil {
		return nil, err
	}
	out.heapPerReq = float64(heap1-heap0) / float64(len(reqs))
	if out.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	return out, d.stop()
}

// runServeSelect is serve-select: rounds of a fresh daemon on an empty
// store answering a seeded batch of distinct single-workload measures,
// with a calibration sample after every round.
func runServeSelect(e *env, r *recorder) error {
	refs, err := loadSelectRefs(e.root)
	if err != nil {
		return err
	}
	cl := newClient(e.ctx)
	keys := selectKeys()
	var c calibrator
	iv := c.sample()
	var setups, colds, makespans, cpus, lats []scaled
	var heaps, rss []float64
	t0 := time.Now()
	for k := 0; k < minSelectRound || time.Since(t0) < e.seconds; k++ {
		rd, err := runSelectRound(e, r, cl, refs, keys, k, false)
		if err != nil {
			return err
		}
		setups = append(setups, scaled{rd.setup, iv})
		colds = append(colds, scaled{rd.cold, iv})
		makespans = append(makespans, scaled{rd.makespan, iv})
		cpus = append(cpus, scaled{rd.cpu, iv})
		for _, l := range rd.lats {
			lats = append(lats, scaled{l, iv})
		}
		heaps = append(heaps, rd.heapPerReq)
		rss = append(rss, float64(rd.rss))
		iv = c.sample()
	}
	ms := scale(c.wallSeconds(lats), 1e3)
	r.set("setup_s", median(c.wallSeconds(setups)))
	r.set("cold_s", median(c.wallSeconds(colds)))
	r.set("cold_cpu_s", median(c.cpuSeconds(cpus)))
	r.set("p50_ms", median(ms))
	r.set("throughput_rps", float64(len(lats))/sum(c.wallSeconds(makespans)))
	r.set("makespan_s", median(c.wallSeconds(makespans)))
	r.set("heap_growth_b_per_req", median(heaps))
	r.set("peak_rss_mb", median(rss)/1e6)
	r.printTails("request", ms)
	r.printf("raw, unscaled medians: setup %.6g s, cold %.6g s, cold CPU %.6g s, request %.6g ms, round %.6g s, throughput %.6g 1/s",
		median(raw(setups)), median(raw(colds)), median(raw(cpus)), 1e3*median(raw(lats)),
		median(raw(makespans)), float64(len(lats))/sum(raw(makespans)))
	r.printCalibration(&c)
	r.printf("%d rounds of %d distinct requests by %d callers", len(makespans), selectBatch, clients)
	return nil
}

// writeSelectRefs regenerates the serve-select reference vectors: every
// selectable suite measured whole on every selectable machine by a
// fresh quick daemon, one row per (suite, machine, workload).
func writeSelectRefs(e *env, path string) error {
	cl := newClient(e.ctx)
	dir, err := e.tempDir("refs-store-")
	if err != nil {
		return err
	}
	d, err := e.startDaemon(cl, dir)
	if err != nil {
		return err
	}
	defer d.kill()
	refs := selectRefs{}
	for _, s := range selectSuites {
		for _, m := range selectMachines {
			st, body, _, err := cl.do(d.url(""), request{path: "/v1/measure", body: measureBody(s, m, nil)})
			if p := replyProblem(reply{status: st, body: body, err: err}); p != nil {
				return p
			}
			rows, err := measureRows(body)
			if err != nil {
				return err
			}
			for _, w := range suiteWorkloads(s) {
				row, ok := rows[w]
				if !ok {
					return fmt.Errorf("%s on %s: no row for %s", s, m, w)
				}
				refs[selectKey{s, m, w}.String()] = row
			}
		}
	}
	if err := d.stop(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
