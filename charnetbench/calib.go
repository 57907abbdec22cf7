package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few CPUs of a shared host, whose speed for it
// drifts by up to about 2x over tens of seconds as co-tenants come and
// go. Such a drift moves every wall and CPU time of a run alike, and no
// amount of repetition inside one run averages it out. So every
// workload interleaves its measurements with runs of a fixed kernel that
// belongs to the benchmark, not to the program, and reports each timing
// scaled by how long the nearby kernel runs took against their fixed
// reference length: seconds at the reference host's speed. A program
// that gets faster or slower moves the scaled timings exactly as it
// moves the raw ones; a host that gets slower moves both the timing and
// the kernel, and cancels out. The raw medians are printed beside them.

const (
	// calWallRef and calCPURef are the kernel's median wall time and
	// user+system CPU time (both callers together) on the reference host,
	// a two-vCPU Xeon VM. A scaled timing is raw × ref ÷ nearby kernel.
	calWallRef = 27 * time.Millisecond
	calCPURef  = 53 * time.Millisecond

	calWords = 1 << 19 // 2 MiB pointer-chase table per caller
	calSteps = 1 << 19 // dependent loads per kernel run
	calKeys  = 1 << 14 // hash-table keys inserted per kernel run
	calReps  = 4       // kernel runs per sample, per caller
	calSpan  = 6       // samples on each side of an interval that scale it
)

// calTables are the callers' pointer-chase tables, each a single random
// cycle (Sattolo's shuffle, fixed seed), and their hash tables; all are
// built once, so a kernel run allocates nothing and leaves the
// benchmark's garbage collector, whose work depends on the workload,
// out of the measurement.
var calTables, calHashes = func() ([][]uint32, [][]uint64) {
	tables := make([][]uint32, clients)
	hashes := make([][]uint64, clients)
	for c := range tables {
		t := make([]uint32, calWords)
		for i := range t {
			t[i] = uint32(i)
		}
		r := rng(0xca1, uint64(c))
		for i := len(t) - 1; i > 0; i-- {
			j := r.IntN(i)
			t[i], t[j] = t[j], t[i]
		}
		tables[c] = t
		hashes[c] = make([]uint64, 2*calKeys)
	}
	return tables, hashes
}()

// calKernel is a fixed mix of the kind of work the program does:
// dependent loads over a table the size of a core's private cache, with
// data-dependent branches, then inserts and lookups in an
// open-addressing hash table. It returns a checksum so the compiler
// keeps every part.
func calKernel(table []uint32, hash []uint64) uint64 {
	var sum uint64
	x := uint32(0)
	for i := 0; i < calSteps; i++ {
		x = table[x]
		if x&1 == 0 {
			sum += uint64(x)
		} else {
			sum ^= uint64(x) << 7
		}
	}
	clear(hash)
	mask := uint64(len(hash) - 1)
	for i := uint64(1); i <= calKeys; i++ {
		k := i * 0x9e3779b97f4a7c15
		j := k >> 40 & mask
		for hash[j] != 0 {
			j = (j + 1) & mask
		}
		hash[j] = k
	}
	for i := uint64(1); i <= 4*calKeys; i++ {
		k := i * 0x9e3779b97f4a7c15
		for j := k >> 40 & mask; hash[j] != 0; j = (j + 1) & mask {
			if hash[j] == k {
				sum += j
				break
			}
		}
	}
	return sum
}

// calSink keeps kernel results alive.
var calSink uint64

// calibrator records the kernel runs of one benchmark run, in order.
// Measurements taken between kernel runs i and i+1 belong to interval i.
type calibrator struct {
	wall, cpu []time.Duration
}

// selfCPU is the benchmark process's user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calRun runs clients×calReps kernel runs on `clients` goroutines that
// each take the next run once their last is done, as the program's
// worker pools and the benchmark's callers share the CPUs. It returns
// the wall time until all are done and the CPU time they took.
func calRun() (wall, cpu time.Duration) {
	var wg sync.WaitGroup
	var next atomic.Int32
	sums := make([]uint64, clients)
	cpu0, t0 := selfCPU(), time.Now()
	for i := range calTables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for next.Add(1) <= clients*calReps {
				sums[i] += calKernel(calTables[i], calHashes[i])
			}
		}(i)
	}
	wg.Wait()
	wall, cpu = time.Since(t0), selfCPU()-cpu0
	for _, s := range sums {
		calSink += s
	}
	return wall, cpu
}

// sample records one calibration sample and returns the index of the
// interval that starts now.
func (c *calibrator) sample() int {
	if c.wall == nil {
		// The first run of all pays for page faults and cold caches; it
		// is not recorded.
		calRun()
	}
	w, cpu := calRun()
	c.wall = append(c.wall, w)
	c.cpu = append(c.cpu, cpu)
	return len(c.wall) - 1
}

// near returns the median of the kernel runs within calSpan of interval
// i's two ends.
func near(xs []time.Duration, i int) time.Duration {
	lo, hi := max(0, i+1-calSpan), min(len(xs), i+1+calSpan)
	if lo >= hi {
		return 0
	}
	s := append([]time.Duration(nil), xs[lo:hi]...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// wallScale is the factor that takes a wall time measured in interval i
// to the reference host's speed.
func (c *calibrator) wallScale(i int) float64 {
	return scaleOf(calWallRef, near(c.wall, i))
}

// cpuScale is wallScale for CPU time.
func (c *calibrator) cpuScale(i int) float64 {
	return scaleOf(calCPURef, near(c.cpu, i))
}

func scaleOf(ref, got time.Duration) float64 {
	if got <= 0 {
		return math.NaN()
	}
	return float64(ref) / float64(got)
}

// scaled is one timing and the interval it was measured in.
type scaled struct {
	d time.Duration
	i int
}

// wallSeconds returns the timings in seconds at the reference speed.
func (c *calibrator) wallSeconds(xs []scaled) []float64 {
	out := make([]float64, len(xs))
	for k, x := range xs {
		out[k] = x.d.Seconds() * c.wallScale(x.i)
	}
	return out
}

// cpuSeconds is wallSeconds for CPU times.
func (c *calibrator) cpuSeconds(xs []scaled) []float64 {
	out := make([]float64, len(xs))
	for k, x := range xs {
		out[k] = x.d.Seconds() * c.cpuScale(x.i)
	}
	return out
}

// raw returns the unscaled timings in seconds.
func raw(xs []scaled) []float64 {
	out := make([]float64, len(xs))
	for k, x := range xs {
		out[k] = x.d.Seconds()
	}
	return out
}

// summary describes the kernel runs for the report.
func (c *calibrator) summary() (n int, wallMs, cpuMs, lo, hi float64) {
	w := msOf(c.wall)
	return len(w), median(w), median(msOf(c.cpu)), quantile(w, 0), quantile(w, 1)
}
