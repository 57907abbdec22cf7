package report

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// measure runs core.Measure with no cache and fails the test on a
// suite-level error.
func measure(t *testing.T, ps []workload.Profile, opts sim.Options) []core.Measurement {
	t.Helper()
	ms, err := core.Measure(context.Background(), nil, ps, machine.CoreI9(), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func sampleMeasurements(t *testing.T) []core.Measurement {
	t.Helper()
	ms := measure(t, workload.DotNetCategories()[:3], sim.Options{Instructions: 5000})
	for _, m := range ms {
		if m.Err != nil {
			t.Fatalf("%s: %v", m.Workload.Name, m.Err)
		}
	}
	return ms
}

func TestFromMeasurements(t *testing.T) {
	recs := FromMeasurements(sampleMeasurements(t))
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.Workload == "" || r.Suite != ".NET" || r.Machine == "" {
		t.Fatalf("identity fields: %+v", r)
	}
	if len(r.Metrics) != metrics.Count {
		t.Fatalf("got %d metrics", len(r.Metrics))
	}
	if r.TopDown == nil || r.TopDown.Retiring <= 0 {
		t.Fatal("topdown missing")
	}
}

func TestErrorRecord(t *testing.T) {
	p := workload.DotNetCategories()[0]
	p.WorkingSetBytes = 190 << 20
	ms := measure(t, []workload.Profile{p}, sim.Options{Instructions: 1000, MaxHeapBytes: 200 << 20})
	recs := FromMeasurements(ms)
	if recs[0].Error == "" {
		t.Fatal("error should be recorded")
	}
	if recs[0].Metrics != nil {
		t.Fatal("failed run should have no metrics")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	recs := FromMeasurements(sampleMeasurements(t))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(recs))
	}
	if back[0].Workload != recs[0].Workload {
		t.Fatal("identity lost")
	}
	if back[0].Metrics["CPI"] != recs[0].Metrics["CPI"] {
		t.Fatal("metric lost")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCSVShape(t *testing.T) {
	recs := FromMeasurements(sampleMeasurements(t))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3
		t.Fatalf("got %d rows", len(rows))
	}
	wantCols := 6 + metrics.Count + 4
	for i, row := range rows {
		if len(row) != wantCols {
			t.Fatalf("row %d has %d cols, want %d", i, len(row), wantCols)
		}
	}
	if rows[0][0] != "workload" || rows[0][6] != metrics.ID(0).Name() {
		t.Fatalf("header wrong: %v", rows[0][:8])
	}
}

func TestSamples(t *testing.T) {
	p, _ := workload.ByName(workload.AspNetWorkloads(), "Json")
	res, err := sim.Run(p, machine.CoreI9(), sim.Options{
		Instructions: 20000, Cores: 2, SampleInterval: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := FromSamples(res.Samples)
	if len(recs) != len(res.Samples) || len(recs) == 0 {
		t.Fatalf("sample records %d vs %d", len(recs), len(res.Samples))
	}
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("csv rows %d", len(rows))
	}
}
