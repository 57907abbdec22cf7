package sim

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestArenaReuseMatchesFreshRun is the arena's differential test: a
// seeded walk over built-in workloads of all three suites and every
// machine runs each workload on one shared arena, right after whatever
// the arena ran before, and the result must deep-equal a fresh Run of the
// same inputs. The walk runs two workloads per machine before switching
// machines, and varies the core count (private and shared LLC), the
// replacement policy (Random's xorshift state must be reset too) and
// hashed slice placement.
func TestArenaReuseMatchesFreshRun(t *testing.T) {
	suites := [][]workload.Profile{
		workload.DotNetCategories(),
		workload.AspNetWorkloads(),
		workload.SpecWorkloads(),
	}
	machines := machine.All()
	r := rng.New(20261017)
	var arena Arena
	var reusedRandom, reusedShared, reusedPrivate, switched int
	prevMachine, prevPolicy, prevShared := "", mem.LRU, false
	const steps = 18
	for i := 0; i < steps; i++ {
		suite := suites[i%len(suites)]
		p := suite[r.Intn(len(suite))]
		m := machines[(i/2)%len(machines)]
		opts := Options{
			Instructions: 1500,
			Cores:        []int{0, 1, 2, 4}[r.Intn(4)],
			Assist:       HWAssist{HashedSlicePlacement: r.Bool(0.5)},
		}
		if r.Bool(0.5) {
			opts.Policy = mem.Random
		}
		want, werr := Run(p, m, opts)
		got, gerr := arena.Run(p, m, opts)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("step %d %s on %s: arena error %v, fresh error %v", i, p.Name, m.Name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s on %s (%+v): arena result differs from a fresh run", i, p.Name, m.Name, opts)
		}

		shared := got.Cores > 1
		if m.Name == prevMachine {
			if opts.Policy == mem.Random && prevPolicy == mem.Random {
				reusedRandom++
			}
			if shared && prevShared {
				reusedShared++
			}
			if !shared && !prevShared {
				reusedPrivate++
			}
		} else if prevMachine != "" {
			switched++
		}
		prevMachine, prevPolicy, prevShared = m.Name, opts.Policy, shared
	}
	// The walk is seeded; these guard its coverage against a reseed.
	if reusedRandom == 0 || reusedShared == 0 || reusedPrivate == 0 || switched == 0 {
		t.Fatalf("walk coverage: random-after-random %d, shared-after-shared %d, private-after-private %d, machine switches %d; all must be nonzero",
			reusedRandom, reusedShared, reusedPrivate, switched)
	}
}
