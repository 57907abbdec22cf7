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
// model to install lines ahead of demand, and by the prewarm pass, whose
// bulk line installs make this the hottest setup loop in the tree — the
// presence scan and victim selection share one pass over the set.
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
// but an order of magnitude faster for large ranges: the loop above
// revisits each set once per wrap of the set space, streaming the whole
// tag/timestamp array through the cache hierarchy on every wrap, while
// the bulk path processes each set exactly once with its ways held hot.
func (c *Cache) InsertRange(start, end uint64) {
	if end <= start {
		return
	}
	if c.policy != LRU || c.ways > maxBulkWays {
		c.insertRangeSlow(start, end)
		return
	}
	sets := uint64(c.sets)
	n := (end - start + (1 << c.lineBits) - 1) >> c.lineBits
	first := start >> c.lineBits
	jobs := [1]insertJob{{
		first: first, last: first + n - 1, n: n,
		mFull: n / sets, mRem: n % sets,
		clockBase: c.clock,
		startSet:  first & c.setMask,
		cnt:       min(n, sets),
	}}
	c.runInsertJobs(jobs[:], c.clock+n)
}

// InsertRanges installs a batch of byte ranges, equivalent to calling
// InsertRange on each in order but processed set-major: every set is
// snapshotted once for the whole batch and the victim-queue state carries
// across ranges. The prewarm pass batches all of a cache's ranges through
// this, turning ranges×sets set visits into one visit per set.
func (c *Cache) InsertRanges(ranges [][2]uint64) {
	if c.policy != LRU || c.ways > maxBulkWays {
		for _, r := range ranges {
			if r[1] > r[0] {
				c.insertRangeSlow(r[0], r[1])
			}
		}
		return
	}
	sets := uint64(c.sets)
	jobs := make([]insertJob, 0, len(ranges))
	clock := c.clock
	for _, r := range ranges {
		if r[1] <= r[0] {
			continue
		}
		n := (r[1] - r[0] + (1 << c.lineBits) - 1) >> c.lineBits
		first := r[0] >> c.lineBits
		j := insertJob{
			first: first, last: first + n - 1, n: n,
			mFull: n / sets, mRem: n % sets,
			clockBase: clock,
			startSet:  first & c.setMask,
			cnt:       min(n, sets),
		}
		// A later range overlapping an earlier one can presence-hit the
		// earlier range's fills, so its inserts need residency checks.
		for i := range jobs {
			if j.first <= jobs[i].last && jobs[i].first <= j.last {
				j.overlaps = true
				break
			}
		}
		jobs = append(jobs, j)
		clock += n
	}
	if len(jobs) == 0 {
		return
	}
	c.runInsertJobs(jobs, clock)
}

// insertRangeSlow is the per-line fallback for policies and geometries the
// bulk path does not model.
func (c *Cache) insertRangeSlow(start, end uint64) {
	lineSize := uint64(1) << c.lineBits
	for a := start; a < end; a += lineSize {
		c.Insert(a)
	}
}

// maxBulkWays bounds the associativity the bulk insert path supports; wider
// caches use the per-line fallback.
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

// runInsertJobs executes a batch of insert jobs with state, statistics and
// clock evolution identical to the per-line Insert loops in batch order.
//
// Each set is handled independently (Insert never couples distinct sets) and
// visited once for the whole batch. Within a set, victims are fully
// determined: empty ways in way order, then pre-existing entries
// oldest-first, then the batch's own fills in FIFO rotation. Because every
// pop is immediately followed by a fill of the same way, the rotation phase
// revisits the ways in exactly the order of the first `ways` pops — so the
// whole victim stream is one fixed sequence sigma (empties in way order,
// then pre-entries by age) cycled forever, and pop p is sigma[p mod ways]
// with no FIFO bookkeeping at all. That state carries from job to job: it
// is exactly what a fresh per-job snapshot would rebuild, since remaining
// empties stay in way order and surviving fills' timestamp order equals
// fill order. Presence-hits (skips that touch nothing, not even
// timestamps) can only come from pre-existing entries inside the job's
// line bounds or from earlier overlapping jobs in the batch; only then are
// residency checks paid.
func (c *Cache) runInsertJobs(jobs []insertJob, endClock uint64) {
	if c.clock == 0 {
		// Every tag write advances the clock, so clock 0 means an
		// untouched cache — the production prewarm case, with its own
		// leaner sweep.
		c.runInsertJobsFresh(jobs, endClock)
		return
	}
	sets := uint64(c.sets)
	ways := c.ways
	// A single job only touches cnt consecutive sets; a batch sweeps all.
	sweepStart, sweepCnt := uint64(0), sets
	if len(jobs) == 1 {
		sweepStart, sweepCnt = jobs[0].startSet, jobs[0].cnt
	}
	// Scratch hoisted out of the sweep; every cell read is written first in
	// the same set iteration.
	var order [maxBulkWays]int32 // sigma: empties, then (merged) pre by age
	var preWay [maxBulkWays]int32
	var preTS [maxBulkWays]uint64
	var preLine [maxBulkWays]uint64
	var wayJ [maxBulkWays]int32 // way -> pending in-bounds position, mask mode
	for si := uint64(0); si < sweepCnt; si++ {
		s := (sweepStart + si) & c.setMask
		base := int(s) * ways
		snapped, merged := false, false
		var e0, nPre, popIdx, pops int
		lastFill := int32(-1)
		for ji := range jobs {
			j := &jobs[ji]
			k := (s - j.startSet) & c.setMask
			if k >= j.cnt {
				continue
			}
			m := j.mFull // inserts landing in this set
			if k < j.mRem {
				m++
			}
			if !snapped {
				snapped = true
				for w := 0; w < ways; w++ {
					t := c.tags[base+w]
					if t == 0 {
						order[e0] = int32(w)
						e0++
						continue
					}
					preWay[nPre] = int32(w)
					preTS[nPre] = c.ts[base+w]
					preLine[nPre] = t >> 1
					nPre++
				}
			}
			// Residency checks are needed iff a currently-resident line can
			// fall inside this job's bounds. Surviving pre-entries are the
			// un-popped suffix; preLine is scanned unsorted while no pop has
			// reached the pre queue (then the suffix is the whole array).
			check := j.overlaps
			if !check {
				vp := pops - e0
				if vp < 0 {
					vp = 0
				}
				for p := vp; p < nPre; p++ {
					if preLine[p] >= j.first && preLine[p] <= j.last {
						check = true
						break
					}
				}
			}
			// This set's sub-sequence of the job: lines lineBase + t*sets,
			// t in [0, m), insert index within the job idx = k + t*sets.
			lineBase := j.first + k
			if !check {
				if m == 1 {
					// The dominant shape (a range shorter than the set
					// space visits each set once): one fill, no loop.
					var w int32
					if pops < e0 {
						w = order[popIdx]
					} else {
						if !merged {
							merged = true
							mergePre(&order, &preWay, &preTS, &preLine, e0, nPre)
						}
						if popIdx == ways {
							popIdx = 0
						}
						w = order[popIdx]
						c.Stats.Evictions++
					}
					popIdx++
					pops++
					i := base + int(w)
					c.tags[i] = lineBase<<1 | 1
					c.ts[i] = j.clockBase + k + 1
					lastFill = w
					continue
				}
				// Clean job: every insert fills. While pops stay below e0
				// the victims are the empties, fill-order untouched; after
				// that sigma cycles and every fill evicts.
				idx := k
				line := lineBase
				t := uint64(0)
				for ; t < m && pops < e0; t++ {
					w := order[popIdx]
					popIdx++
					pops++
					i := base + int(w)
					c.tags[i] = line<<1 | 1
					c.ts[i] = j.clockBase + idx + 1
					lastFill = w
					idx += sets
					line += sets
				}
				if t < m {
					if !merged {
						merged = true
						mergePre(&order, &preWay, &preTS, &preLine, e0, nPre)
					}
					for ; t < m; t++ {
						if popIdx == ways {
							popIdx = 0
						}
						w := order[popIdx]
						popIdx++
						pops++
						c.Stats.Evictions++
						i := base + int(w)
						c.tags[i] = line<<1 | 1
						c.ts[i] = j.clockBase + idx + 1
						lastFill = w
						idx += sets
						line += sets
					}
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
					// Overlapping with m > 64: per-line residency scan.
					word := line<<1 | 1
					for w := 0; w < ways; w++ {
						if c.tags[base+w] == word {
							present = true
							break
						}
					}
				}
				if !present {
					if pops >= e0 {
						if !merged {
							merged = true
							mergePre(&order, &preWay, &preTS, &preLine, e0, nPre)
						}
						if popIdx == ways {
							popIdx = 0
						}
						c.Stats.Evictions++
					}
					w := order[popIdx]
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
					i := base + int(w)
					c.tags[i] = line<<1 | 1
					c.ts[i] = j.clockBase + idx + 1
					lastFill = w
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

// runInsertJobsFresh is runInsertJobs specialized for an untouched cache:
// with every way empty, sigma is the way order itself, so there is no
// snapshot, no timestamp merge and no pre-entry residency scan. Presence
// checks remain only for jobs overlapping an earlier job of the batch
// (nursery re-warms), whose mask is built from the live tags as in the
// general path. Victim of pop p in any set is way p mod ways; a fill past
// the first `ways` pops overwrites a prior fill and counts as an eviction,
// exactly as the per-line path would.
func (c *Cache) runInsertJobsFresh(jobs []insertJob, endClock uint64) {
	sets := uint64(c.sets)
	ways := c.ways
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
			if !j.overlaps {
				if m == 1 {
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

// mergePre completes sigma: the pre-existing entries are sorted by
// timestamp (= eviction order) and appended after the empties in order.
// Deferred until a pop actually reaches the pre queue: prewarm mostly fills
// fresh sets, where it never runs.
func mergePre(order, way *[maxBulkWays]int32, ts *[maxBulkWays]uint64, line *[maxBulkWays]uint64, e0, n int) {
	for i := 1; i < n; i++ {
		pw, pt, pl := way[i], ts[i], line[i]
		q := i - 1
		for q >= 0 && ts[q] > pt {
			way[q+1], ts[q+1], line[q+1] = way[q], ts[q], line[q]
			q--
		}
		way[q+1], ts[q+1], line[q+1] = pw, pt, pl
	}
	for i := 0; i < n; i++ {
		order[e0+i] = way[i]
	}
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

// Flush invalidates every line, modeling the cold-start state after JIT
// code-page relocation or a context migration.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// FlushRange invalidates all lines whose address falls inside
// [start, start+size), used when the JIT relocates one code page.
func (c *Cache) FlushRange(start, size uint64) {
	first := start >> c.lineBits
	last := (start + size - 1) >> c.lineBits
	firstWord := first<<1 | 1
	lastWord := last<<1 | 1
	for i, t := range c.tags {
		if t != 0 && t >= firstWord && t <= lastWord {
			c.tags[i] = 0
		}
	}
}

// ResetStats zeroes the counters without touching cache contents; used to
// discard warmup runs the way §III-A discards the first of 15 runs.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }
