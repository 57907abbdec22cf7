package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	setupRuns  = 15 // fresh `charnet suites` processes timed for setup_s
	coldRuns   = 8  // cold regenerations, each on its own empty store
	regenBatch = 64 // warm regenerations per closed-loop batch
)

// tableIVReference returns the Table IV section of docs/full_output.txt:
// from its title line through the blank line that ends it, exactly what
// `charnet -full table4` prints.
func tableIVReference(root string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(root, "docs", "full_output.txt"))
	if err != nil {
		return nil, err
	}
	lines := strings.SplitAfter(string(data), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "Table IV:") {
			continue
		}
		for j := i + 1; j < len(lines); j++ {
			if strings.TrimSpace(lines[j]) == "" {
				return []byte(strings.Join(lines[i:j+1], "")), nil
			}
		}
	}
	return nil, fmt.Errorf("docs/full_output.txt has no Table IV section")
}

// sameBytes is the byte-equality gate.
func sameBytes(got, want []byte, what string) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: %d bytes differ from the %d-byte reference", what, len(got), len(want))
}

// runCLI is cli-table4: batches of warm regenerations by two
// closed-loop callers, with fresh `charnet suites` processes (set-up)
// and cold `charnet -full table4` regenerations on empty stores spread
// over them, and a calibration sample after every batch.
func runCLI(e *env, r *recorder) error {
	ref, err := tableIVReference(e.root)
	if err != nil {
		return err
	}

	var c calibrator
	iv := c.sample()
	var setup []scaled
	var suitesOut []byte
	setUp := func() error {
		p, err := e.run("charnet", "suites")
		if err != nil {
			return err
		}
		if suitesOut == nil {
			suitesOut = p.stdout
		}
		r.check("setup: charnet suites", sameBytes(p.stdout, suitesOut, "suites output"))
		setup = append(setup, scaled{p.wall, iv})
		return nil
	}

	// Set-ups and cold regenerations are spread evenly over the run, so
	// their medians sample all of it rather than one stretch of host
	// conditions.
	var coldWall, coldCPU []scaled
	var coldRSS []float64
	var stores []string
	cold := func() error {
		dir, err := e.tempDir("cold-store-")
		if err != nil {
			return err
		}
		stores = append(stores, dir)
		p, err := e.run("charnet", "-full", "-cache", dir, "table4")
		if err != nil {
			return err
		}
		r.check("cold regeneration", sameBytes(p.stdout, ref, "cold table4"))
		coldWall = append(coldWall, scaled{p.wall, iv})
		coldCPU = append(coldCPU, scaled{p.cpu, iv})
		coldRSS = append(coldRSS, float64(p.maxRSS))
		return nil
	}

	var warm, batches []scaled
	var warmRSS []float64
	t0 := time.Now()
	for k := 0; time.Since(t0) < e.seconds || len(coldWall) < coldRuns || len(setup) < setupRuns; k++ {
		for len(setup) < setupRuns && time.Since(t0) >= time.Duration(len(setup))*e.seconds/setupRuns {
			if err := setUp(); err != nil {
				return err
			}
		}
		if len(coldWall) < coldRuns && time.Since(t0) >= time.Duration(len(coldWall))*e.seconds/coldRuns {
			if err := cold(); err != nil {
				return err
			}
			iv = c.sample()
		}
		store := stores[pickStore(e.seed, k, len(stores))]
		runs := make([]procRun, regenBatch)
		errs := make([]error, regenBatch)
		batch := closedLoop(regenBatch, func(i int) {
			runs[i], errs[i] = e.run("charnet", "-full", "-cache", store, "table4")
		})
		for i, p := range runs {
			if errs[i] != nil {
				return errs[i]
			}
			r.check("warm regeneration", sameBytes(p.stdout, ref, "warm table4"))
			warm = append(warm, scaled{p.wall, iv})
			warmRSS = append(warmRSS, float64(p.maxRSS))
		}
		batches = append(batches, scaled{batch, iv})
		iv = c.sample()
	}

	warmMs := scale(c.wallSeconds(warm), 1e3)
	r.set("setup_s", median(c.wallSeconds(setup)))
	r.set("cold_s", median(c.wallSeconds(coldWall)))
	r.set("cold_cpu_s", median(c.cpuSeconds(coldCPU)))
	r.set("p50_ms", median(warmMs))
	r.set("throughput_rps", float64(len(warm))/sum(c.wallSeconds(batches)))
	r.set("makespan_s", median(c.wallSeconds(batches)))
	// Every regeneration is a process of its own, so the memory one
	// request holds is that process's peak RSS. Peak RSS moves in steps as
	// GC cycles land; means over several runs are steadier than medians.
	r.set("heap_growth_b_per_req", mean(warmRSS))
	r.set("peak_rss_mb", mean(coldRSS)/1e6)
	r.printf("warm_s (one warm regeneration, the median p50_ms reports): %.6f s", median(c.wallSeconds(warm)))
	r.printTails("warm regeneration", warmMs)
	r.printf("raw, unscaled medians: setup %.6g s, cold %.6g s, cold CPU %.6g s, warm %.6g ms, batch %.6g s, throughput %.6g 1/s",
		median(raw(setup)), median(raw(coldWall)), median(raw(coldCPU)), 1e3*median(raw(warm)),
		median(raw(batches)), float64(len(warm))/sum(raw(batches)))
	r.printCalibration(&c)
	r.printf("set-up: %d `charnet suites` runs; %d cold regenerations; %d warm regenerations in %d batches of %d by %d callers",
		setupRuns, len(coldWall), len(warm), len(batches), regenBatch, clients)
	return nil
}
