package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mstore"
	"repro/internal/obs"
)

// tinyLab is the smallest configuration the drivers accept.
func tinyLab() *experiments.Lab {
	cfg := experiments.Quick()
	cfg.Instructions = 3000
	cfg.DotNetIndividualLimit = 60
	cfg.CoreSweep = []int{1, 4}
	return experiments.NewLab(cfg)
}

func run(lab *experiments.Lab, cmd string, args []string) error {
	return dispatch(context.Background(), lab, cmd, args, "text", io.Discard)
}

func TestDispatchInfoCommands(t *testing.T) {
	lab := tinyLab()
	for _, cmd := range []string{"metrics", "machines", "suites"} {
		if err := run(lab, cmd, nil); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestDispatchRun(t *testing.T) {
	lab := tinyLab()
	if err := run(lab, "run", []string{"System.MathBenchmarks"}); err != nil {
		t.Fatal(err)
	}
	if err := run(lab, "run", nil); err == nil {
		t.Fatal("run without a name should fail")
	}
	if err := run(lab, "run", []string{"NoSuchWorkload"}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestDispatchUnknown(t *testing.T) {
	if err := run(tinyLab(), "fig99", nil); err == nil {
		t.Fatal("unknown command should fail")
	}
}

func TestDispatchOneFigure(t *testing.T) {
	// table3 exercises the measure→PCA path end to end through the CLI.
	if err := run(tinyLab(), "table3", nil); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchFormats renders one driver in every format and checks the
// structured outputs parse.
func TestDispatchFormats(t *testing.T) {
	lab := tinyLab()

	var text bytes.Buffer
	if err := dispatch(context.Background(), lab, "fig3", nil, "text", &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Fig 3") {
		t.Errorf("text output missing figure header:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := dispatch(context.Background(), lab, "fig3", nil, "json", &js); err != nil {
		t.Fatal(err)
	}
	var arts []struct {
		Name     string           `json:"name"`
		Payloads []map[string]any `json:"payloads"`
	}
	if err := json.Unmarshal(js.Bytes(), &arts); err != nil {
		t.Fatalf("-format json output is not valid JSON: %v", err)
	}
	if len(arts) != 1 || arts[0].Name != "fig3" || len(arts[0].Payloads) == 0 {
		t.Errorf("unexpected JSON artifact shape: %+v", arts)
	}

	var csv bytes.Buffer
	if err := dispatch(context.Background(), lab, "fig3", nil, "csv", &csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "artifact,payload,kind,row,column,unit,value") {
		t.Errorf("unexpected CSV output:\n%s", csv.String())
	}
}

// TestDispatchCancelled verifies an already-cancelled context aborts a
// driver command with the context error.
func TestDispatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := dispatch(ctx, tinyLab(), "fig3", nil, "text", io.Discard)
	if err == nil {
		t.Fatal("cancelled dispatch should fail")
	}
}

func TestExportArgs(t *testing.T) {
	lab := tinyLab()
	if err := run(lab, "export", nil); err == nil {
		t.Fatal("export without suite should fail")
	}
	if err := run(lab, "export", []string{"nope"}); err == nil {
		t.Fatal("unknown suite should fail")
	}
	if err := run(lab, "export", []string{"spec", "nope"}); err == nil {
		t.Fatal("unknown format should fail")
	}
	if err := run(lab, "export", []string{"spec", "json"}); err != nil {
		t.Fatal(err)
	}
}

// TestExportThroughLab: export measures through the Lab, so two runs in
// separate Labs sharing one store emit identical bytes and the second is
// served from the store without simulating, and a sampled suite exports
// the Lab's sampled set rather than every workload.
func TestExportThroughLab(t *testing.T) {
	dir := t.TempDir()
	export := func(suite string) ([]byte, *obs.Trace) {
		t.Helper()
		store, err := mstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		lab := tinyLab()
		lab.Obs = obs.New()
		store.Obs = lab.Obs
		lab.Store = store
		var out bytes.Buffer
		if err := dispatch(context.Background(), lab, "export", []string{suite, "json"}, "text", &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), lab.Obs
	}
	cold, coldTr := export("spec")
	warm, warmTr := export("spec")
	if !bytes.Equal(cold, warm) {
		t.Fatal("export bytes differ between a cold and a store-served run")
	}
	if coldTr.Counter("sim.instructions") == 0 {
		t.Fatal("cold export simulated nothing")
	}
	if n := warmTr.Counter("mstore.hits"); n == 0 {
		t.Fatal("warm export was not served from the store")
	}
	if n := warmTr.Counter("sim.instructions"); n != 0 {
		t.Fatalf("warm export simulated %d instructions, want 0", n)
	}

	sampled, _ := export("dotnet-individual")
	var recs []json.RawMessage
	if err := json.Unmarshal(sampled, &recs); err != nil {
		t.Fatal(err)
	}
	if want := tinyLab().Cfg.DotNetIndividualLimit; len(recs) != want {
		t.Fatalf("dotnet-individual exported %d records, want the sampled %d", len(recs), want)
	}
}

// TestConfigDriversThroughStore: Figs 11-14 and the extensions measure
// through the Lab, so each driver run cold simulates, and a second run in
// a fresh Lab on the same store emits identical bytes, served from the
// store without simulating anything.
func TestConfigDriversThroughStore(t *testing.T) {
	for _, cmd := range []string{"fig11", "fig12", "fig13", "fig14", "extensions"} {
		dir := t.TempDir()
		drive := func() ([]byte, *obs.Trace) {
			t.Helper()
			store, err := mstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			lab := tinyLab()
			// Fig 13's correlations need quick fidelity's sample count.
			lab.Cfg.Instructions = experiments.Quick().Instructions
			lab.Obs = obs.New()
			store.Obs = lab.Obs
			lab.Store = store
			var out bytes.Buffer
			if err := dispatch(context.Background(), lab, cmd, nil, "text", &out); err != nil {
				t.Fatal(err)
			}
			return out.Bytes(), lab.Obs
		}
		cold, coldTr := drive()
		warm, warmTr := drive()
		if coldTr.Counter("sim.instructions") == 0 {
			t.Errorf("%s: cold run simulated nothing", cmd)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: bytes differ between a cold and a store-served run", cmd)
		}
		if warmTr.Counter("mstore.hits") == 0 {
			t.Errorf("%s: warm run was not served from the store", cmd)
		}
		if n := warmTr.Counter("sim.instructions"); n != 0 {
			t.Errorf("%s: warm run simulated %d instructions, want 0", cmd, n)
		}
	}
}

// TestTraceOutSchema drives a real figure with tracing on and validates
// the -trace-out artifact: valid JSON, only known phases, complete ("X")
// events with timestamps and non-negative durations, and the span
// taxonomy's driver/measure/sim layers all present.
func TestTraceOutSchema(t *testing.T) {
	lab := tinyLab()
	tr := obs.New()
	lab.Obs = tr
	if err := run(lab, "table3", nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	phasesPath := filepath.Join(dir, "phases.json")
	var selfProfile strings.Builder
	// writeObsOutputs prints the self-profile to stderr in production; the
	// file artifacts are what the schema check needs.
	if err := func() error {
		for path, write := range map[string]func(io.Writer) error{
			tracePath:  tr.WriteChromeTrace,
			eventsPath: tr.WriteJSONL,
			phasesPath: tr.WritePhasesJSON,
		} {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return tr.WriteSelfProfile(&selfProfile)
	}(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("-trace-out artifact is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("X event without ts: %v", ev)
			}
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("X event without non-negative dur: %v", ev)
			}
			if args, ok := ev["args"].(map[string]any); ok {
				if span, _ := args["span"].(string); span != "" {
					seen[span] = true
				}
			}
		case "B", "E", "C", "M", "i", "I":
		default:
			t.Fatalf("unknown phase %q: %v", ph, ev)
		}
	}
	for _, span := range []string{"driver", "measure", "sim", "prewarm", "run", "derive"} {
		if !seen[span] {
			t.Errorf("trace missing %q spans (got %v)", span, seen)
		}
	}
	if !strings.Contains(selfProfile.String(), "driver table3") {
		t.Errorf("self-profile missing the driver row:\n%s", selfProfile.String())
	}

	var phases struct {
		Phases map[string]float64 `json:"phases"`
	}
	pb, err := os.ReadFile(phasesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pb, &phases); err != nil {
		t.Fatal(err)
	}
	if phases.Phases["table3"] <= 0 {
		t.Errorf("phases.json missing a positive table3 wall time: %v", phases.Phases)
	}
}
