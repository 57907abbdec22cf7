// Package charnet is the public API of this reproduction of
// "Performance Characterization of .NET Benchmarks" (ISPASS 2021).
//
// It exposes, as one façade, everything a downstream user needs:
//
//   - the three benchmark-suite catalogs (.NET microbenchmarks, ASP.NET,
//     SPEC CPU17) as parameterized workload profiles,
//   - the Table II machine models (Intel Xeon E5-2620 v4, Intel Core
//     i9-9980XE, Arm server),
//   - the trace-driven simulator that executes a workload against a
//     machine and produces perf-style counters, a Top-Down profile, and
//     LTTng-style runtime-event samples,
//   - the characterization pipeline (24 Table I metrics → PCA →
//     hierarchical clustering → representative subsets → SPECspeed-style
//     validation),
//   - and one driver per paper table/figure (Table III/IV, Figs 1-14).
//
// Quick start:
//
//	p, _ := charnet.WorkloadByName(charnet.DotNetCategories(), "System.Runtime")
//	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{})
//	if err != nil { ... }
//	vec, _ := charnet.Metrics(res)
//	fmt.Println(vec[charnet.CPI], res.Profile)
package charnet

import (
	"context"

	"repro/internal/clr"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/subset"
	"repro/internal/workload"
)

// Re-exported workload types and catalogs.
type (
	// Profile is the behavioral description of one workload.
	Profile = workload.Profile
	// Suite identifies a benchmark suite.
	Suite = workload.Suite
)

// Suite identifiers.
const (
	DotNet    = workload.DotNet
	AspNet    = workload.AspNet
	SpecCPU17 = workload.SpecCPU17
)

// DotNetCategories returns the 44 .NET category archetypes (§II-A).
func DotNetCategories() []Profile { return workload.DotNetCategories() }

// DotNetWorkloads returns all 2906 individual .NET microbenchmarks.
func DotNetWorkloads() []Profile { return workload.DotNetWorkloads() }

// AspNetWorkloads returns the 53 ASP.NET benchmarks (§II-B).
func AspNetWorkloads() []Profile { return workload.AspNetWorkloads() }

// SpecWorkloads returns the SPEC CPU17 catalog.
func SpecWorkloads() []Profile { return workload.SpecWorkloads() }

// WorkloadByName finds a profile by name.
func WorkloadByName(ps []Profile, name string) (Profile, bool) { return workload.ByName(ps, name) }

// Machine is a hardware platform model (Table II).
type Machine = machine.Config

// XeonE5 returns the Intel Xeon E5-2620 v4 baseline machine.
func XeonE5() *Machine { return machine.XeonE5() }

// CoreI9 returns the Intel Core i9-9980XE main machine.
func CoreI9() *Machine { return machine.CoreI9() }

// Arm returns the AArch64 server machine.
func Arm() *Machine { return machine.Arm() }

// Machines returns all three Table II machines.
func Machines() []*Machine { return machine.All() }

// GCMode selects the managed garbage-collection strategy (§VII-B).
type GCMode = clr.GCMode

// GC modes.
const (
	Workstation = clr.Workstation
	Server      = clr.Server
)

// Simulation types.
type (
	// Options configures one simulation run.
	Options = sim.Options
	// Result is a completed run: counters, Top-Down profile, samples.
	Result = sim.Result
	// Counters is the raw measurement ledger.
	Counters = sim.Counters
	// Sample is one time-bin of counter deltas (§VII-A sampling).
	Sample = sim.Sample
	// HWAssist selects the paper's §VIII what-if hardware optimizations
	// (JIT-metadata prefetch, predictor state transform, hardware GC
	// offload, hashed LLC slice placement).
	HWAssist = sim.HWAssist
)

// Run executes a workload on a machine.
func Run(p Profile, m *Machine, opts Options) (*Result, error) { return sim.Run(p, m, opts) }

// Metric types: the 24 Table I metrics.
type (
	// MetricID identifies one Table I metric.
	MetricID = metrics.ID
	// Vector is a complete 24-metric characterization.
	Vector = metrics.Vector
)

// Commonly used metric IDs (see package metrics for the full set).
const (
	CPI        = metrics.CPI
	BranchMPKI = metrics.BranchMPKI
	L1IMPKI    = metrics.L1IMPKI
	L1DMPKI    = metrics.L1DMPKI
	L2MPKI     = metrics.L2MPKI
	LLCMPKI    = metrics.LLCMPKI
	ITLBMPKI   = metrics.ITLBMPKI
)

// MetricNames returns the 24 metric names in Table I order.
func MetricNames() []string { return metrics.Names() }

// Metrics normalizes a run into the 24 Table I metrics.
func Metrics(res *Result) (Vector, error) { return perf.Normalize(res) }

// Characterization pipeline types.
type (
	// Measurement pairs a workload with its measured vector.
	Measurement = core.Measurement
	// Characterization is a fitted PCA + clustering model of a suite.
	Characterization = core.Characterization
	// Linkage selects the hierarchical-clustering linkage.
	Linkage = cluster.Linkage
	// Validation is one subset-validation result (Fig 2 bar).
	Validation = subset.Validation
)

// Linkage methods.
const (
	Average  = cluster.Average
	Complete = cluster.Complete
	Single   = cluster.Single
	Ward     = cluster.Ward
)

// MeasureSuite measures every workload of a suite on a machine, on a
// GOMAXPROCS-wide worker pool. Per-workload failures land in
// Measurement.Err; the suite as a whole cannot fail, since nothing can
// cancel it.
func MeasureSuite(ps []Profile, m *Machine, opts Options) []Measurement {
	//charnet:ignore errdiscard a background context cannot be cancelled, so the only error source is off
	ms, _ := core.Measure(context.Background(), nil, ps, m, opts, 0) //charnet:ignore ctxflow the facade's uncancellable entry point; cancellable callers measure through an experiments.Lab
	return ms
}

// Characterize fits the §IV pipeline: PCA over 24-metric vectors, top-PC
// projection, hierarchical clustering.
func Characterize(ms []Measurement, topPCs int, linkage Linkage) (*Characterization, error) {
	return core.Characterize(ms, topPCs, linkage)
}

// ValidateSubset validates a subset selection against the full suite's
// SPECspeed-style composite score across two machines' measurements.
func ValidateSubset(name string, baseline, machineA []Measurement, selected []int) (Validation, error) {
	bt := core.ExecutionTimes(baseline)
	ft := core.ExecutionTimes(machineA)
	scores, err := subset.Scores(bt, ft)
	if err != nil {
		return Validation{}, err
	}
	return subset.Validate(name, scores, selected), nil
}
