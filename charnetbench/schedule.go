package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/workload"
)

// Every request schedule is a pure function of the seed (and a batch or
// round index): the same seed always sends the same requests in the same
// order.

const (
	i9   = "Intel Core i9-9980XE"
	xeon = "Intel Xeon E5-2620 v4"

	warmBatch   = 1024 // serve-warm requests per closed-loop batch
	selectBatch = 64   // distinct single-workload requests per serve-select round
	filtered    = 8    // filtered measure bodies in the serve-warm mix
)

// selectSuites and selectMachines span the serve-select key space.
var (
	selectSuites   = []string{"aspnet", "spec", "dotnet"}
	selectMachines = []string{i9, xeon}
)

func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// measureBody renders a POST /v1/measure body.
func measureBody(suite, machine string, workloads []string) string {
	b, err := json.Marshal(struct {
		Suite     string   `json:"suite"`
		Machine   string   `json:"machine"`
		Workloads []string `json:"workloads,omitempty"`
	}{suite, machine, workloads})
	if err != nil {
		panic(err) // strings always marshal
	}
	return string(b)
}

// suiteWorkloads lists a built-in suite's workload names in catalog order.
func suiteWorkloads(wire string) []string {
	def, ok := workload.Builtin().Lookup(wire)
	if !ok {
		panic("charnetbench: no built-in suite " + wire)
	}
	var out []string
	for _, p := range def.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// warmMix returns the distinct requests of the serve-warm mix: every mix
// driver, each selectable suite measured whole on the i9, and `filtered`
// seeded measures of one to three workloads of one suite. All of them
// are cache hits once each has been sent once.
func warmMix(seed uint64) []request {
	var out []request
	for _, d := range mixDrivers {
		out = append(out, request{path: "/v1/drivers/" + d})
	}
	for _, s := range selectSuites {
		out = append(out, request{path: "/v1/measure", body: measureBody(s, i9, nil)})
	}
	r := rng(seed, 1)
	for i := 0; i < filtered; i++ {
		suite := selectSuites[r.IntN(len(selectSuites))]
		names := suiteWorkloads(suite)
		pick := r.Perm(len(names))[:1+r.IntN(3)]
		var ws []string
		for _, j := range pick {
			ws = append(ws, names[j])
		}
		out = append(out, request{path: "/v1/measure", body: measureBody(suite, i9, ws)})
	}
	return out
}

// warmSchedule returns batch k of the serve-warm traffic: warmBatch
// uniform draws from the mix.
func warmSchedule(seed uint64, mix []request, k int) []request {
	r := rng(seed, 1000+uint64(k))
	out := make([]request, warmBatch)
	for i := range out {
		out[i] = mix[r.IntN(len(mix))]
	}
	return out
}

// selectKey is one pickable (suite, machine, workload) measurement.
type selectKey struct {
	suite, machine, workload string
}

func (k selectKey) String() string { return fmt.Sprintf("%s|%s|%s", k.suite, k.machine, k.workload) }

// selectKeys lists every pickable key in a fixed order.
func selectKeys() []selectKey {
	var out []selectKey
	for _, s := range selectSuites {
		for _, m := range selectMachines {
			for _, w := range suiteWorkloads(s) {
				out = append(out, selectKey{s, m, w})
			}
		}
	}
	return out
}

// selectSchedule returns round k of serve-select: selectBatch distinct
// keys in seeded order.
func selectSchedule(seed uint64, keys []selectKey, k int) []selectKey {
	r := rng(seed, 2000+uint64(k))
	out := make([]selectKey, selectBatch)
	for i, j := range r.Perm(len(keys))[:selectBatch] {
		out[i] = keys[j]
	}
	return out
}

// pickStore picks which of the n cold stores made so far warm batch k of
// cli-table4 reads; they hold the same entries, and this is the only
// choice that workload has.
func pickStore(seed uint64, k, n int) int {
	return rng(seed, 3000+uint64(k)).IntN(n)
}
