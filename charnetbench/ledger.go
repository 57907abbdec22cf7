package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// spanRec is one span of the program's JSONL event log (obs.WriteJSONL).
type spanRec struct {
	Type    string  `json:"type"`
	Name    string  `json:"name"`
	Lane    int     `json:"lane"`
	Depth   int     `json:"depth"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`

	parent int // index of the parent span, -1 for a root
}

func (s *spanRec) end() float64 { return s.StartUS + s.DurUS }

// readSpans reads the trace's spans back from its JSONL export, in start
// order, and links each to its parent: the latest-started span one level
// up whose interval holds the child's start, preferring the child's lane.
func readSpans(tr *obs.Trace) ([]spanRec, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	var spans []spanRec
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, err
		}
		if s.Type == "span" {
			spans = append(spans, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range spans {
		spans[i].parent = -1
		if spans[i].Depth == 0 {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			p := &spans[j]
			if p.Depth != spans[i].Depth-1 || p.StartUS > spans[i].StartUS || p.end() < spans[i].StartUS {
				continue
			}
			if spans[i].parent < 0 || p.Lane == spans[i].Lane {
				spans[i].parent = j
			}
			if p.Lane == spans[i].Lane {
				break
			}
		}
		if spans[i].parent < 0 {
			return nil, fmt.Errorf("span %s at depth %d has no enclosing parent", spans[i].Name, spans[i].Depth)
		}
	}
	return spans, nil
}

// spanLayers maps span names, the benchmark's and the program's, to
// ledger layers. A span with another name belongs to its parent's layer.
var spanLayers = map[string]string{
	"bench.table4":          "bench",
	"workload.registry":     "workload",
	"experiments.measure":   "experiments",
	"measure":               "core", // the program's suite measurement: pool feed and waits
	"sim":                   "sim.other",
	"prewarm":               "sim.prewarm",
	"run":                   "sim.run",
	"derive":                "sim.derive",
	"mstore.get":            "mstore",
	"mstore.put":            "mstore",
	"analysis.characterize": "analysis",
	"analysis.subset":       "analysis",
	"artifact.render":       "artifact",
}

// ledger is the per-layer cost of one traced regeneration, in seconds.
type ledger struct {
	self  map[string]float64 // layer: span time minus time covered by child spans, summed over spans
	wall  map[string]float64 // layer: wall time, each instant split among the spans running then
	count map[string]int     // span name: spans
	total map[string]float64 // span name: summed duration
}

func layerOf(spans []spanRec, i int) string {
	for ; i >= 0; i = spans[i].parent {
		if l, ok := spanLayers[spans[i].Name]; ok {
			return l
		}
	}
	return "bench"
}

// covered is the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi float64
	open := false
	for _, x := range iv {
		if !open || x[0] > hi {
			if open {
				total += hi - lo
			}
			lo, hi, open = x[0], x[1], true
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// buildLedger computes self time per layer and a wall-time split that
// adds up to the root spans' duration: between any two span boundaries,
// the elapsed time is divided equally among the running spans that have
// no running child.
func buildLedger(spans []spanRec) (*ledger, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("trace holds no spans")
	}
	led := &ledger{self: map[string]float64{}, wall: map[string]float64{}, count: map[string]int{}, total: map[string]float64{}}
	children := make([][][2]float64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]float64{s.StartUS, s.end()})
		}
	}
	for i, s := range spans {
		led.count[s.Name]++
		led.total[s.Name] += s.DurUS / 1e6
		led.self[layerOf(spans, i)] += (s.DurUS - covered(children[i])) / 1e6
	}

	var bounds []float64
	for _, s := range spans {
		bounds = append(bounds, s.StartUS, s.end())
	}
	sort.Float64s(bounds)
	running := make([]bool, len(spans))
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		if hi <= lo {
			continue
		}
		for i, s := range spans {
			running[i] = s.StartUS <= lo && s.end() >= hi
		}
		hasRunningChild := make([]bool, len(spans))
		for i := range spans {
			if running[i] && spans[i].parent >= 0 {
				hasRunningChild[spans[i].parent] = true
			}
		}
		var leaves []int
		for i := range spans {
			if running[i] && !hasRunningChild[i] {
				leaves = append(leaves, i)
			}
		}
		for _, i := range leaves {
			led.wall[layerOf(spans, i)] += (hi - lo) / 1e6 / float64(len(leaves))
		}
	}
	return led, nil
}
