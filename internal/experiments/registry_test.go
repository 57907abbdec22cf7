package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/artifact"
)

// TestRegistryShape: every driver appears exactly once with complete
// metadata, DriverByName agrees with the slice, and only fig12 (its
// columns already appear in fig11's legacy table) and telemetry (it
// describes the run, not the paper) are excluded from text-format
// `all`, which is pinned byte-for-byte.
func TestRegistryShape(t *testing.T) {
	ds := Drivers()
	if len(ds) != 21 {
		t.Fatalf("registry has %d drivers, want 21", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if d.Name == "" || d.Title == "" || d.Paper == "" || d.Run == nil {
			t.Errorf("driver %+v has incomplete metadata", d)
		}
		if seen[d.Name] {
			t.Errorf("driver %q registered twice", d.Name)
		}
		seen[d.Name] = true
		got, ok := DriverByName(d.Name)
		if !ok || got.Name != d.Name {
			t.Errorf("DriverByName(%q) = %+v, %v", d.Name, got, ok)
		}
		if d.SkipInTextAll != (d.Name == "fig12" || d.Name == "telemetry") {
			t.Errorf("driver %q SkipInTextAll = %v; only fig12 and telemetry may be skipped", d.Name, d.SkipInTextAll)
		}
	}
	if _, ok := DriverByName("fig99"); ok {
		t.Error("DriverByName resolved an unregistered name")
	}
}

// TestRegistryArtifactsDeterministic runs every registered driver twice —
// once against the shared warm lab, once against a fresh one — and
// requires a non-empty text rendering that is byte-identical across the
// runs, with the artifact named after its registry entry. This is the
// whole-registry determinism contract the CLI's `all` output rests on.
func TestRegistryArtifactsDeterministic(t *testing.T) {
	ctx := context.Background()
	fresh := NewLab(Quick())
	for _, d := range Drivers() {
		warmRes, err := d.Run(ctx, quickLab)
		if err != nil {
			t.Fatalf("%s (warm lab): %v", d.Name, err)
		}
		a := warmRes.Artifact()
		if a.Name != d.Name {
			t.Errorf("%s: artifact named %q; registry and artifact names must match", d.Name, a.Name)
		}
		if a.Title == "" || len(a.Payloads) == 0 {
			t.Errorf("%s: artifact missing title or payloads", d.Name)
		}
		warmText := artifact.Text(a)
		if warmText == "" {
			t.Errorf("%s: empty text rendering", d.Name)
		}
		freshRes, err := d.Run(ctx, fresh)
		if err != nil {
			t.Fatalf("%s (fresh lab): %v", d.Name, err)
		}
		if freshText := artifact.Text(freshRes.Artifact()); freshText != warmText {
			t.Errorf("%s: text rendering differs between a warm and a fresh lab", d.Name)
		}
	}
}

// TestConfigDriversWorkerCountInvariant: the drivers that measure one
// simulator configuration at a time (Figs 11-14 and the extensions)
// render the same JSON whether the Lab's pool has one worker or two.
func TestConfigDriversWorkerCountInvariant(t *testing.T) {
	render := func(workers int) map[string]string {
		cfg := Quick()
		cfg.CoreSweep = []int{1, 4}
		cfg.Workers = workers
		lab := NewLab(cfg)
		out := map[string]string{}
		for _, name := range []string{"fig11", "fig12", "fig13", "fig14", "extensions"} {
			d, _ := DriverByName(name)
			res, err := d.Run(context.Background(), lab)
			if err != nil {
				t.Fatalf("%s with %d workers: %v", name, workers, err)
			}
			var b strings.Builder
			if err := artifact.WriteJSON(&b, []*artifact.Artifact{res.Artifact()}); err != nil {
				t.Fatal(err)
			}
			out[name] = b.String()
		}
		return out
	}
	serial, pooled := render(1), render(2)
	for name, want := range serial {
		if pooled[name] != want {
			t.Errorf("%s renders differently with 2 workers than with 1", name)
		}
	}
}
