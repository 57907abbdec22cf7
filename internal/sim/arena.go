package sim

import (
	"repro/internal/branch"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Arena is the reusable storage of one simulation worker: every core's
// L1I/L1D/L2 caches, private LLC, TLB set and branch predictor, the shared
// LLC slices, and the machine's kernel code layout. Running workload after
// workload on one Arena resets that storage in place instead of
// allocating and zeroing a fresh hierarchy per workload. Every structure
// returns to exactly its newly built state, so Arena.Run(p, m, opts) is
// bit-identical to Run(p, m, opts) whatever the arena ran before, on any
// machine. The zero value is ready to use.
//
// An Arena is not safe for concurrent use, and it keeps every structure
// it has built for as long as it is reachable: ~12 MB for a 16-core Xeon
// engine, ~23 MB once it has also run a single-core workload with its
// private LLC. Its lifetime is one worker of one suite measurement; it
// must never become a package-level or sync.Pool cache.
type Arena struct {
	cores []coreStore
	llc   *noc.SharedLLC

	kernelMachine string // machine the kernel layout was built for
	kernelAddrs   []uint64
	kernelSizes   []int
}

// coreStore is one core's reusable microarchitectural storage.
type coreStore struct {
	l1i, l1d, l2, l3 *mem.Cache
	tlbs             *mem.TLBSet
	bp               *branch.Predictor
}

// Run executes the workload on the machine, as the package-level Run
// does, on the arena's storage.
func (a *Arena) Run(p workload.Profile, m *machine.Config, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &engine{p: p, m: m, opts: opts, arena: a}
	sp := opts.Obs
	pspan := sp.Child("prewarm", "")
	err := e.setup()
	pspan.End()
	sp.Trace().Observe("sim.phase.prewarm", pspan.Duration())
	if err != nil {
		return nil, err
	}

	perCore := opts.Instructions
	if perCore == 0 {
		perCore = DefaultInstructions
	}
	rspan := sp.Child("run", "")
	if !opts.DisableWarmup {
		e.run(perCore / 4)
		e.resetStats()
	}
	e.nextSample = e.opts.SampleInterval
	e.run(perCore)
	rspan.End()
	sp.Trace().Observe("sim.phase.run", rspan.Duration())
	res, err := e.finish()
	if err != nil {
		return nil, err
	}
	sp.Trace().Add("sim.instructions", int64(res.Counters.Instructions))
	return res, nil
}

// renewCore gives core c its caches, TLBs and predictor, renewed from the
// arena's storage for core c.id; private selects a private LLC.
func (a *Arena) renewCore(c *core, m *machine.Config, policy mem.ReplacementPolicy, private bool) {
	for len(a.cores) <= c.id {
		a.cores = append(a.cores, coreStore{})
	}
	st := &a.cores[c.id]
	st.l1i = mem.RenewCache(st.l1i, "L1I", m.L1I, policy)
	st.l1d = mem.RenewCache(st.l1d, "L1D", m.L1D, policy)
	st.l2 = mem.RenewCache(st.l2, "L2", m.L2, policy)
	st.tlbs = mem.RenewTLBSet(st.tlbs, m)
	st.bp = branch.Renew(st.bp, 13, m.BTBEntries, 4)
	c.l1i, c.l1d, c.l2, c.tlbs, c.bp = st.l1i, st.l1d, st.l2, st.tlbs, st.bp
	if private {
		st.l3 = mem.RenewCache(st.l3, "L3", m.L3, policy)
		c.l3 = st.l3
	}
}

// kernelLayout returns the kernel code layout, a function of the machine
// alone and so built once per machine. The slices are read-only.
func (a *Arena) kernelLayout(m *machine.Config) ([]uint64, []int) {
	if a.kernelAddrs != nil && a.kernelMachine == m.Name {
		return a.kernelAddrs, a.kernelSizes
	}
	kr := rng.NewFrom(rng.HashString("kernel"), rng.HashString(m.Name))
	addrs := make([]uint64, kernelMethods)
	sizes := make([]int, kernelMethods)
	next := uint64(kernelCodeBase)
	mean := kernelCodeBytes / kernelMethods
	for i := range addrs {
		size := mean/2 + kr.Intn(mean)
		addrs[i] = next
		sizes[i] = size
		next += uint64(size)
	}
	a.kernelMachine, a.kernelAddrs, a.kernelSizes = m.Name, addrs, sizes
	return addrs, sizes
}
