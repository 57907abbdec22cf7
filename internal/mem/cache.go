// Package mem implements the memory-hierarchy simulators behind the
// paper's cache and TLB metrics: set-associative caches with LRU
// replacement, which the simulation engine wires into an L1I/L1D +
// unified L2 + LLC hierarchy per core, and I-/D-TLB models with a unified
// second-level TLB. The engine feeds synthetic address streams through
// these structures; every cache/TLB MPKI value in the reproduced figures
// is counted here rather than assumed.
package mem

import (
	"fmt"

	"repro/internal/machine"
)

// ReplacementPolicy selects how a victim way is chosen on fill.
type ReplacementPolicy int

const (
	// LRU is the default policy used everywhere in the reproduction.
	LRU ReplacementPolicy = iota
	// Random replacement exists for the ablation bench comparing MPKI
	// sensitivity to the replacement policy.
	Random
)

// Cache is one level of set-associative cache.
//
// Line storage is packed: each way holds (line<<1)|1 when valid and 0 when
// empty, so the way scan is a single word compare and no separate valid
// bitmap is needed. Line ids are at most 2^58 for 64-bit addresses and
// 64-byte lines, so the shift cannot lose bits. A per-set MRU way index
// short-circuits the scan on the common repeat-hit pattern.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	setBits  uint
	setMask  uint64
	policy   ReplacementPolicy

	tags  []uint64 // sets*ways, packed (line<<1)|1; 0 = empty
	ts    []uint64 // LRU timestamps
	mru   []int32  // per-set most-recently-touched way
	clock uint64
	rseed uint64 // cheap xorshift state for Random policy

	Stats CacheStats
}

// CacheStats counts accesses and misses.
type CacheStats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewCache builds a cache from geometry. It panics on invalid geometry
// (callers validate machine.Config first).
func NewCache(name string, g machine.CacheGeom, policy ReplacementPolicy) *Cache {
	sets := g.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s has invalid set count %d", name, sets))
	}
	lineBits := uint(0)
	for l := g.LineBytes; l > 1; l >>= 1 {
		lineBits++
	}
	if 1<<lineBits != g.LineBytes {
		panic(fmt.Sprintf("mem: cache %s line size %d not a power of two", name, g.LineBytes))
	}
	setBits := uint(0)
	for s := sets; s > 1; s >>= 1 {
		setBits++
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     g.Ways,
		lineBits: lineBits,
		setBits:  setBits,
		setMask:  uint64(sets - 1),
		policy:   policy,
		tags:     make([]uint64, sets*g.Ways),
		ts:       make([]uint64, sets*g.Ways),
		mru:      make([]int32, sets),
		rseed:    rseedInit,
	}
}

// rseedInit is the Random policy's initial xorshift state.
const rseedInit = 0x2545f4914f6cdd1d

// RenewCache returns a cache in exactly the state NewCache(name, g,
// policy) builds. When c already has g's geometry its storage is reset in
// place and reused, so a simulation worker running workload after workload
// on one machine stops reallocating (and re-zeroing, and collecting) its
// hierarchy; otherwise, or when c is nil, it allocates a new cache.
func RenewCache(c *Cache, name string, g machine.CacheGeom, policy ReplacementPolicy) *Cache {
	if c == nil || c.sets != g.Sets() || c.ways != g.Ways || 1<<c.lineBits != g.LineBytes {
		return NewCache(name, g, policy)
	}
	c.name = name
	clear(c.tags)
	clear(c.ts)
	clear(c.mru)
	c.policy = policy
	c.clock = 0
	c.rseed = rseedInit
	c.Stats = CacheStats{}
	return c
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Access looks up addr, filling on miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.Stats.Accesses++
	line := addr >> c.lineBits
	set := line & c.setMask
	word := line<<1 | 1
	base := int(set) * c.ways

	// MRU fast path: repeated hits to the same line skip the way scan.
	if m := base + int(c.mru[set]); c.tags[m] == word {
		c.ts[m] = c.clock
		return true
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == word {
			c.ts[base+w] = c.clock
			c.mru[set] = int32(w)
			return true
		}
	}
	c.Stats.Misses++
	victim := c.fill(base, word)
	c.mru[set] = int32(victim - base)
	return false
}

// Probe reports whether addr is present without updating state or stats.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	word := line<<1 | 1
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == word {
			return true
		}
	}
	return false
}

// Insert fills addr without counting an access: used by the prefetcher
// model to install lines ahead of demand, and by InsertRange(s) on caches
// the bulk sweep does not model. The presence scan and victim selection
// share one pass over the set.
func (c *Cache) Insert(addr uint64) {
	c.clock++
	line := addr >> c.lineBits
	set := line & c.setMask
	word := line<<1 | 1
	base := int(set) * c.ways

	if c.policy != LRU {
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] == word {
				return // already present
			}
		}
		victim := c.fill(base, word)
		c.mru[set] = int32(victim - base)
		return
	}
	// LRU: fused presence + victim scan. Victim preference matches fill:
	// the first empty way, else the lowest timestamp in scan order.
	empty := -1
	victim := base
	oldest := c.ts[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		t := c.tags[i]
		if t == word {
			return // already present
		}
		if t == 0 {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if c.ts[i] < oldest {
			oldest = c.ts[i]
			victim = i
		}
	}
	if empty >= 0 {
		victim = empty
	} else {
		c.Stats.Evictions++
	}
	c.tags[victim] = word
	c.ts[victim] = c.clock
	c.mru[set] = int32(victim - base)
}

// InsertRange installs every line of [start, end) in ascending address
// order, with state, statistics and clock evolution identical to
//
//	for a := start; a < end; a += lineSize { c.Insert(a) }
//
// On an untouched LRU cache — the prewarm case, right after RenewCache —
// it runs the bulk sweep, an order of magnitude faster for large ranges:
// the loop above revisits each set once per wrap of the set space,
// streaming the whole tag/timestamp array through the host's caches on
// every wrap, while the sweep processes each set exactly once with its
// ways held hot. Any other cache takes the loop above.
func (c *Cache) InsertRange(start, end uint64) {
	if end <= start {
		return
	}
	if !c.bulkable() {
		c.insertRangeSlow(start, end)
		return
	}
	jobs := [1]insertJob{c.newJob(start, end, 0)}
	c.runInsertJobs(jobs[:], jobs[0].n)
}

// InsertRanges installs a batch of byte ranges, equivalent to calling
// InsertRange on each in order. On an untouched LRU cache the batch runs
// set-major: every set is visited once for the whole batch, turning
// ranges×sets set visits into one visit per set. The prewarm pass batches
// all of a cache's ranges through this.
func (c *Cache) InsertRanges(ranges [][2]uint64) {
	if !c.bulkable() {
		for _, r := range ranges {
			c.insertRangeSlow(r[0], r[1])
		}
		return
	}
	jobs := make([]insertJob, 0, len(ranges))
	clock := uint64(0)
	for _, r := range ranges {
		if r[1] <= r[0] {
			continue
		}
		j := c.newJob(r[0], r[1], clock)
		// A later range overlapping an earlier one can presence-hit the
		// earlier range's fills, so its inserts need residency checks.
		for i := range jobs {
			if j.first <= jobs[i].last && jobs[i].first <= j.last {
				j.overlaps = true
				break
			}
		}
		jobs = append(jobs, j)
		clock += j.n
	}
	if len(jobs) == 0 {
		return
	}
	c.runInsertJobs(jobs, clock)
}

// bulkable reports whether the bulk sweep models this cache exactly: LRU,
// at most maxBulkWays ways, and untouched. Every tag write advances the
// clock, so clock 0 means every way is empty.
func (c *Cache) bulkable() bool {
	return c.clock == 0 && c.policy == LRU && c.ways <= maxBulkWays
}

// insertRangeSlow is the per-line path for caches the bulk sweep does not
// model.
func (c *Cache) insertRangeSlow(start, end uint64) {
	lineSize := uint64(1) << c.lineBits
	for a := start; a < end; a += lineSize {
		c.Insert(a)
	}
}

// maxBulkWays bounds the associativity the bulk insert path supports; wider
// caches use the per-line path.
const maxBulkWays = 32

// insertJob is one range of an InsertRanges batch, in line coordinates.
type insertJob struct {
	first, last uint64 // inclusive line ids
	n           uint64 // line count
	mFull, mRem uint64 // lines per set: mFull, +1 for the first mRem sets
	clockBase   uint64 // clock value before this job's first insert
	startSet    uint64 // set of the first line
	cnt         uint64 // touched set count, min(n, sets)
	overlaps    bool   // line bounds intersect an earlier job in the batch
}

// newJob describes the non-empty byte range [start, end) as an insert job
// whose first insert follows clock value clockBase.
func (c *Cache) newJob(start, end, clockBase uint64) insertJob {
	sets := uint64(c.sets)
	n := (end - start + (1 << c.lineBits) - 1) >> c.lineBits
	first := start >> c.lineBits
	return insertJob{
		first: first, last: first + n - 1, n: n,
		mFull: n / sets, mRem: n % sets,
		clockBase: clockBase,
		startSet:  first & c.setMask,
		cnt:       min(n, sets),
	}
}

// runInsertJobs executes a batch of insert jobs on an untouched cache with
// state, statistics and clock evolution identical to the per-line Insert
// loops in batch order.
//
// Each set is handled independently (Insert never couples distinct sets) and
// visited once for the whole batch. With every way empty at the start, the
// victim of pop p in any set is way p mod ways: the empties in way order
// first, then the batch's own fills in FIFO rotation, since every pop is
// immediately followed by a fill of the same way and surviving fills'
// timestamp order equals fill order. A fill past the first `ways` pops
// overwrites a prior fill and counts as an eviction, exactly as the
// per-line path would. Presence-hits (skips that touch nothing, not even
// timestamps) can only come from earlier jobs of the batch whose line
// bounds overlap (nursery re-warms); only those jobs pay residency checks.
func (c *Cache) runInsertJobs(jobs []insertJob, endClock uint64) {
	sets := uint64(c.sets)
	ways := c.ways
	// A single job only touches cnt consecutive sets; a batch sweeps all.
	sweepStart, sweepCnt := uint64(0), sets
	if len(jobs) == 1 {
		sweepStart, sweepCnt = jobs[0].startSet, jobs[0].cnt
	}
	var wayJ [maxBulkWays]int32 // way -> pending in-bounds position, mask mode
	for si := uint64(0); si < sweepCnt; si++ {
		s := (sweepStart + si) & c.setMask
		base := int(s) * ways
		popIdx, pops := 0, 0
		lastFill := int32(-1)
		for ji := range jobs {
			j := &jobs[ji]
			k := (s - j.startSet) & c.setMask
			if k >= j.cnt {
				continue
			}
			m := j.mFull
			if k < j.mRem {
				m++
			}
			lineBase := j.first + k
			// This set's sub-sequence of the job: lines lineBase + t*sets,
			// t in [0, m), insert index within the job idx = k + t*sets.
			if !j.overlaps {
				if m == 1 {
					// The dominant shape (a range shorter than the set
					// space visits each set once): one fill, no loop.
					if popIdx == ways {
						popIdx = 0
					}
					if pops >= ways {
						c.Stats.Evictions++
					}
					w := popIdx
					popIdx++
					pops++
					i := base + w
					c.tags[i] = lineBase<<1 | 1
					c.ts[i] = j.clockBase + k + 1
					lastFill = int32(w)
					continue
				}
				idx := k
				line := lineBase
				for t := uint64(0); t < m; t++ {
					if popIdx == ways {
						popIdx = 0
					}
					if pops >= ways {
						c.Stats.Evictions++
					}
					w := popIdx
					popIdx++
					pops++
					i := base + w
					c.tags[i] = line<<1 | 1
					c.ts[i] = j.clockBase + idx + 1
					lastFill = int32(w)
					idx += sets
					line += sets
				}
				continue
			}
			useMask := m <= 64
			var mask uint64
			if useMask {
				// Which of the m lines are resident right now. Residents in
				// bounds are necessarily on this sub-sequence (their set is
				// determined by the line), so a bounds check suffices and
				// the position falls out of a shift.
				for w := 0; w < ways; w++ {
					wayJ[w] = -1
					t := c.tags[base+w]
					if t == 0 {
						continue
					}
					if line := t >> 1; line >= j.first && line <= j.last {
						p := (line - lineBase) >> c.setBits
						wayJ[w] = int32(p)
						mask |= 1 << p
					}
				}
			}
			idx := k
			line := lineBase
			for t := uint64(0); t < m; t++ {
				present := false
				if useMask {
					present = mask&(1<<t) != 0
				} else {
					// m > 64: per-line residency scan.
					word := line<<1 | 1
					for w := 0; w < ways; w++ {
						if c.tags[base+w] == word {
							present = true
							break
						}
					}
				}
				if !present {
					if popIdx == ways {
						popIdx = 0
					}
					if pops >= ways {
						c.Stats.Evictions++
					}
					w := popIdx
					popIdx++
					pops++
					if useMask {
						// Evicting a not-yet-reached resident line makes its
						// turn a real re-fill.
						if pj := wayJ[w]; pj >= 0 {
							mask &^= 1 << uint64(pj)
						}
						wayJ[w] = -1
					}
					i := base + w
					c.tags[i] = line<<1 | 1
					c.ts[i] = j.clockBase + idx + 1
					lastFill = int32(w)
				}
				idx += sets
				line += sets
			}
		}
		if lastFill >= 0 {
			c.mru[s] = lastFill
		}
	}
	c.clock = endClock
}

// fill selects a victim way for word in the set at base, installs it, and
// returns the victim index.
func (c *Cache) fill(base int, word uint64) int {
	victim := base
	switch c.policy {
	case LRU:
		oldest := c.ts[base]
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] == 0 {
				victim = base + w
				break
			}
			if c.ts[base+w] < oldest {
				oldest = c.ts[base+w]
				victim = base + w
			}
		}
	case Random:
		// xorshift64*
		c.rseed ^= c.rseed >> 12
		c.rseed ^= c.rseed << 25
		c.rseed ^= c.rseed >> 27
		victim = base + int((c.rseed*0x2545f4914f6cdd1d)>>33)%c.ways
	}
	if c.tags[victim] != 0 {
		c.Stats.Evictions++
	}
	c.tags[victim] = word
	c.ts[victim] = c.clock
	return victim
}

// ResetStats zeroes the counters without touching cache contents; used to
// discard warmup runs the way §III-A discards the first of 15 runs.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }
