package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestMeasureWireRoutes: every published suite name measures, the result
// is the one Lab.MeasureSuite returns for the resolved definition (same
// Lab cache key), and an unknown name errors with the roster.
func TestMeasureWireRoutes(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000, DotNetIndividualLimit: 5})
	m := machine.CoreI9()
	ctx := context.Background()
	for _, suite := range SuiteNames() {
		ms, err := lab.measureWire(ctx, suite, m)
		if err != nil {
			t.Fatalf("suite %q: %v", suite, err)
		}
		if len(ms) == 0 {
			t.Fatalf("suite %q: no measurements", suite)
		}
	}
	// The by-name route and the definition route must share one cache
	// entry: the very same measurement slice.
	def, ok := lab.Suite("aspnet")
	if !ok {
		t.Fatal("aspnet suite not registered")
	}
	direct, err := lab.MeasureSuite(ctx, def, m)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := lab.measureWire(ctx, "aspnet", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(routed) || &direct[0] != &routed[0] {
		t.Fatalf("routed and direct calls did not share one cache entry (%d vs %d measurements)", len(routed), len(direct))
	}
	if _, err := lab.measureWire(ctx, "nope", m); err == nil || !strings.Contains(err.Error(), "unknown suite") {
		t.Fatalf("unknown suite returned %v, want unknown-suite error", err)
	}
}

// TestFilterMeasurements: order follows the request, unknown names skip.
func TestFilterMeasurements(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	ms, err := lab.DotNetCategories(context.Background(), machine.CoreI9())
	if err != nil {
		t.Fatal(err)
	}
	got := FilterMeasurements(ms, []string{"System.Linq", "no-such-workload", "System.Runtime"})
	if len(got) != 2 {
		t.Fatalf("filtered to %d measurements, want 2", len(got))
	}
	if got[0].Workload.Name != "System.Linq" || got[1].Workload.Name != "System.Runtime" {
		t.Fatalf("filter order wrong: %q, %q", got[0].Workload.Name, got[1].Workload.Name)
	}
}
