package mstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// measure runs core.Measure behind cache (nil for none) and fails the
// test on a suite-level error.
func measure(t *testing.T, cache core.MeasurementCache, ps []workload.Profile, m *machine.Config, opts sim.Options, workers int) []core.Measurement {
	t.Helper()
	ms, err := core.Measure(context.Background(), cache, ps, m, opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func testInputs() ([]workload.Profile, *machine.Config, sim.Options) {
	ps := workload.DotNetCategories()[:6]
	return ps, machine.CoreI9(), sim.Options{Instructions: 3000}
}

func TestKeyStability(t *testing.T) {
	ps, m, opts := testInputs()
	k1, err := Key(ps, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key(ps, m, opts)
	if k1 != k2 {
		t.Fatalf("equal inputs produced different keys: %s vs %s", k1, k2)
	}
	// Any keyed input change must change the key.
	o2 := opts
	o2.Instructions++
	if k3, _ := Key(ps, m, o2); k3 == k1 {
		t.Fatal("option change did not change the key")
	}
	m2 := *m
	m2.L3.SizeBytes *= 2
	if k4, _ := Key(ps, &m2, opts); k4 == k1 {
		t.Fatal("machine change did not change the key")
	}
	if k5, _ := Key(ps[:5], m, opts); k5 == k1 {
		t.Fatal("profile change did not change the key")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	ps, m, opts := testInputs()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("empty store reported a hit")
	}
	ms := measure(t, nil, ps, m, opts, 0)
	s.Put(ps, m, opts, ms)
	got, ok := s.Get(ps, m, opts)
	if !ok {
		t.Fatal("store missed just-stored measurements")
	}
	if len(got) != len(ms) {
		t.Fatalf("got %d measurements, want %d", len(got), len(ms))
	}
	for i := range ms {
		if got[i].Workload.Name != ms[i].Workload.Name {
			t.Fatalf("[%d] workload %q != %q", i, got[i].Workload.Name, ms[i].Workload.Name)
		}
		if got[i].Vector != ms[i].Vector {
			t.Fatalf("[%d] vector changed across round-trip", i)
		}
		if (got[i].Err == nil) != (ms[i].Err == nil) {
			t.Fatalf("[%d] error presence changed across round-trip", i)
		}
		if !reflect.DeepEqual(got[i].Result, ms[i].Result) {
			t.Fatalf("[%d] result changed across round-trip", i)
		}
	}
	// The derived report must be byte-identical too.
	var live, cached bytes.Buffer
	if err := report.WriteCSV(&live, report.FromMeasurements(ms)); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteCSV(&cached, report.FromMeasurements(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), cached.Bytes()) {
		t.Fatal("cached measurements render a different report")
	}
}

// TestMarshalEntryMatchesMarshal: the per-measurement entry encoding is
// byte-for-byte the one-shot json.Marshal of the entry, failed
// measurements and an empty suite included.
func TestMarshalEntryMatchesMarshal(t *testing.T) {
	ps, m, opts := testInputs()
	ms := measure(t, nil, ps, m, opts, 0)
	recs := make([]rec, len(ms))
	for i, mm := range ms {
		recs[i] = rec{Workload: mm.Workload, Vector: mm.Vector, Result: mm.Result}
	}
	recs[1] = rec{Workload: ms[1].Workload, Err: "heap: <OutOfMemory> & more"}
	for _, rs := range [][]rec{recs, {}} {
		want, err := json.Marshal(entry{Version: FormatVersion, Key: "k\"ey", Measurements: rs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalEntry("k\"ey", rs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("marshalEntry of %d records differs from json.Marshal:\n%.200s\n%.200s", len(rs), got, want)
		}
	}
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	ps, m, opts := testInputs()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ms := measure(t, nil, ps, m, opts, 0)
	s.Put(ps, m, opts, ms)
	key, _ := Key(ps, m, opts)
	if err := os.WriteFile(filepath.Join(s.Dir(), key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("corrupt entry should read as a miss")
	}
}

// TestMeasureEquivalence is the pipeline's determinism contract made
// explicit: one worker, many workers and a warm store must produce
// identical measurements — same vectors, same ordering, same report bytes.
func TestMeasureEquivalence(t *testing.T) {
	ps, m, opts := testInputs()
	serial := measure(t, nil, ps, m, opts, 1)
	parallel := measure(t, nil, ps, m, opts, 8)

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := measure(t, s, ps, m, opts, 0) // cold: measures and stores
	warm := measure(t, s, ps, m, opts, 0)  // warm: served from disk

	render := func(ms []core.Measurement) []byte {
		var b bytes.Buffer
		if err := report.WriteCSV(&b, report.FromMeasurements(ms)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ref := render(serial)
	for name, ms := range map[string][]core.Measurement{
		"parallel": parallel, "cold-cached": first, "warm-cached": warm,
	} {
		if len(ms) != len(serial) {
			t.Fatalf("%s: %d measurements, want %d", name, len(ms), len(serial))
		}
		for i := range ms {
			if ms[i].Workload.Name != serial[i].Workload.Name {
				t.Fatalf("%s[%d]: ordering differs: %q vs %q", name, i, ms[i].Workload.Name, serial[i].Workload.Name)
			}
			if ms[i].Vector != serial[i].Vector {
				t.Fatalf("%s[%d] (%s): vector differs from serial run", name, i, ms[i].Workload.Name)
			}
		}
		if !bytes.Equal(render(ms), ref) {
			t.Fatalf("%s: report bytes differ from serial run", name)
		}
	}
}

// TestClassifiedErrorsSurviveTheStore: a measurement that fails with a
// simulator sentinel (here a forced OutOfMemory) classifies with
// errors.Is both when measured and when served from the store, so Fig 14
// renders a failed cell on a warm store instead of aborting; any other
// stored error stays unclassified.
func TestClassifiedErrorsSurviveTheStore(t *testing.T) {
	p, _ := workload.ByName(workload.DotNetCategories(), "System.Collections")
	p.WorkingSetBytes = 190 << 20
	ps, m := []workload.Profile{p}, machine.CoreI9()
	opts := sim.Options{Instructions: 1000, MaxHeapBytes: 200 << 20}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.New()
	cold := measure(t, s, ps, m, opts, 1)
	warm := measure(t, s, ps, m, opts, 1)
	if s.Obs.Counter("mstore.hits") != 1 {
		t.Fatal("second measurement was not served from the store")
	}
	for name, ms := range map[string][]core.Measurement{"cold": cold, "warm": warm} {
		if err := ms[0].Err; !errors.Is(err, clr.ErrOutOfMemory) {
			t.Errorf("%s: error %v does not classify as clr.ErrOutOfMemory", name, err)
		}
	}
	if err := decodeErr(clr.ErrServerGCReserve.Error()); err != clr.ErrServerGCReserve {
		t.Errorf("stored server-GC reservation failure decodes to %v", err)
	}
	if err := decodeErr("perf: run of x retired no instructions"); errors.Is(err, clr.ErrOutOfMemory) || errors.Is(err, clr.ErrServerGCReserve) {
		t.Errorf("an unclassified stored error decodes to a sentinel: %v", err)
	}
}

// TestObsCountersAndWarnings pins the error-surfacing contract: degraded
// store paths count into the trace and warn exactly once per class.
func TestObsCountersAndWarnings(t *testing.T) {
	ps, m, opts := testInputs()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	tr := obs.New()
	s.Obs, s.Log = tr, &log

	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("empty store reported a hit")
	}
	if got := tr.Counter("mstore.misses"); got != 1 {
		t.Fatalf("mstore.misses = %d, want 1", got)
	}
	if log.Len() != 0 {
		t.Fatalf("a plain miss must not warn, got %q", log.String())
	}

	ms := measure(t, nil, ps, m, opts, 0)
	s.Put(ps, m, opts, ms)
	if got := tr.Counter("mstore.puts"); got != 1 {
		t.Fatalf("mstore.puts = %d, want 1", got)
	}
	if _, ok := s.Get(ps, m, opts); !ok {
		t.Fatal("store missed just-stored measurements")
	}
	if got := tr.Counter("mstore.hits"); got != 1 {
		t.Fatalf("mstore.hits = %d, want 1", got)
	}

	// Corrupt the entry: two reads must count twice but warn once.
	key, _ := Key(ps, m, opts)
	if err := os.WriteFile(filepath.Join(s.Dir(), key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(ps, m, opts); ok {
			t.Fatal("corrupt entry should read as a miss")
		}
	}
	if got := tr.Counter("mstore.corrupt"); got != 2 {
		t.Fatalf("mstore.corrupt = %d, want 2", got)
	}
	if got := strings.Count(log.String(), "corrupt entry"); got != 1 {
		t.Fatalf("corrupt warning emitted %d times, want once:\n%s", got, log.String())
	}

	// A store rooted at an unwritable path counts put errors and warns.
	ro := t.TempDir()
	if err := os.Chmod(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(ro, 0o755) })
	s2 := &Store{dir: ro, Obs: tr, Log: &log}
	before := log.String()
	s2.Put(ps, m, opts, ms)
	s2.Put(ps, m, opts, ms)
	if os.Getuid() == 0 {
		t.Skip("running as root: read-only directory does not fail writes")
	}
	if got := tr.Counter("mstore.put_errors"); got != 2 {
		t.Fatalf("mstore.put_errors = %d, want 2", got)
	}
	if got := strings.Count(log.String()[len(before):], "cannot store"); got != 1 {
		t.Fatalf("write warning emitted %d times, want once", got)
	}
}

// TestNilObsAndLogAreSafe verifies an un-instrumented store still works and
// warns to stderr-by-default without panicking.
func TestNilObsAndLogAreSafe(t *testing.T) {
	ps, m, opts := testInputs()
	s := &Store{dir: t.TempDir(), Log: io.Discard}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("empty store reported a hit")
	}
	key, _ := Key(ps, m, opts)
	if err := os.WriteFile(filepath.Join(s.dir, key+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("corrupt entry should read as a miss")
	}
}
