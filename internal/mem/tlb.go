package mem

import (
	"fmt"

	"repro/internal/machine"
)

// TLB models a translation lookaside buffer: set-associative or fully
// associative over virtual page numbers, LRU replacement. A second-level
// (unified) TLB can back the first level, matching both the Intel STLB and
// the Arm "2K-entry secondary TLB" of §III-B.
//
// Entry storage is packed the same way as mem.Cache: a way holds
// (vpn<<1)|1 when valid and 0 when empty, so lookups are single word
// compares, and a per-set MRU index short-circuits the scan for the
// same-page runs that dominate real address streams.
type TLB struct {
	name     string
	sets     int
	ways     int
	pageBits uint
	setMask  uint64

	tags  []uint64 // sets*ways, packed (vpn<<1)|1; 0 = empty
	ts    []uint64
	mru   []int32 // per-set most-recently-hit way
	clock uint64

	next *TLB // optional second level

	Stats TLBStats
}

// TLBStats counts lookups and misses. A first-level miss that hits in the
// second level is counted in SecondLevelHits and does NOT count as a miss
// for MPKI purposes (matching how perf exposes walk-causing misses).
type TLBStats struct {
	Lookups         uint64
	Misses          uint64 // misses that required a page walk
	SecondLevelHits uint64
}

// MissRate returns walk-causing misses per lookup.
func (s TLBStats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// NewTLB builds a TLB from geometry; Ways == 0 means fully associative.
// The optional next TLB is consulted on a first-level miss.
func NewTLB(name string, g machine.TLBGeom, next *TLB) *TLB {
	if g.Entries <= 0 {
		panic(fmt.Sprintf("mem: TLB %s has %d entries", name, g.Entries))
	}
	pageBits := uint(0)
	for p := g.PageSize; p > 1; p >>= 1 {
		pageBits++
	}
	if 1<<pageBits != g.PageSize {
		panic(fmt.Sprintf("mem: TLB %s page size %d not a power of two", name, g.PageSize))
	}
	ways := g.Ways
	if ways == 0 {
		ways = g.Entries // fully associative: one set
	}
	sets := g.Entries / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: TLB %s yields invalid set count %d", name, sets))
	}
	return &TLB{
		name:     name,
		sets:     sets,
		ways:     ways,
		pageBits: pageBits,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		ts:       make([]uint64, sets*ways),
		mru:      make([]int32, sets),
		next:     next,
	}
}

// Name returns the TLB's label.
func (t *TLB) Name() string { return t.name }

// Lookup translates addr, returning true when the first level hits.
// On a first-level miss the second level is consulted; only a miss in both
// counts as a walk-causing miss.
func (t *TLB) Lookup(addr uint64) bool {
	t.clock++
	t.Stats.Lookups++
	vpn := addr >> t.pageBits
	set := vpn & t.setMask
	word := vpn<<1 | 1
	base := int(set) * t.ways
	if m := base + int(t.mru[set]); t.tags[m] == word {
		t.ts[m] = t.clock
		return true
	}
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == word {
			t.ts[base+w] = t.clock
			t.mru[set] = int32(w)
			return true
		}
	}
	// First-level miss: consult second level if present.
	if t.next != nil && t.next.lookupInternal(vpn) {
		t.Stats.SecondLevelHits++
		t.fillSet(set, word)
		return false // first level missed, but no walk
	}
	t.Stats.Misses++
	t.fillSet(set, word)
	if t.next != nil {
		t.next.insert(vpn)
	}
	return false
}

// lookupInternal checks the TLB by VPN without recursing further.
func (t *TLB) lookupInternal(vpn uint64) bool {
	t.clock++
	set := vpn & t.setMask
	word := vpn<<1 | 1
	base := int(set) * t.ways
	if m := base + int(t.mru[set]); t.tags[m] == word {
		t.ts[m] = t.clock
		return true
	}
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == word {
			t.ts[base+w] = t.clock
			t.mru[set] = int32(w)
			return true
		}
	}
	return false
}

func (t *TLB) insert(vpn uint64) {
	t.clock++
	t.fillSet(vpn&t.setMask, vpn<<1|1)
}

// fillSet installs word into its set: the first empty way, else the LRU
// way, and marks the filled way MRU.
func (t *TLB) fillSet(set, word uint64) {
	base := int(set) * t.ways
	victim := base
	oldest := t.ts[base]
	for w := 0; w < t.ways; w++ {
		if t.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if t.ts[base+w] < oldest {
			oldest = t.ts[base+w]
			victim = base + w
		}
	}
	t.tags[victim] = word
	t.ts[victim] = t.clock
	t.mru[set] = int32(victim - base)
}

// Warm installs the page containing addr into this TLB and its second
// level without touching statistics — prewarming for long-running
// processes whose translations are resident before measurement begins.
func (t *TLB) Warm(addr uint64) {
	vpn := addr >> t.pageBits
	t.insert(vpn)
	if t.next != nil {
		t.next.insert(vpn)
	}
}

// WarmRange warms every page of [start, end), equivalent to calling Warm
// at start, start+pageSize, ... while below end — the shape of every
// prewarm loop. The page count matches that loop even for unaligned
// bounds: advancing by one page advances the VPN by exactly one.
func (t *TLB) WarmRange(start, end uint64) {
	if end <= start {
		return
	}
	pageSize := uint64(1) << t.pageBits
	n := (end - start + pageSize - 1) >> t.pageBits
	v0 := start >> t.pageBits
	t.bulkInsert(v0, n)
	if t.next != nil {
		t.next.bulkInsert(v0, n)
	}
}

// bulkInsert installs VPNs v0, v0+1, ..., v0+n-1 with exactly the state
// transitions of n sequential insert calls, processed set-major: one
// snapshot per set instead of one victim scan per page.
//
// Inserts never check presence (duplicate translations are allowed, as in
// the per-page path), so every insert fills, and the victim sequence of a
// set is fixed by its snapshot: empty ways in way order, then the valid
// entries oldest-first, then — because each fill's timestamp exceeds all
// earlier ones — the same sequence cycles. Insert i gets ts clock+i+1;
// consecutive VPNs round-robin sets, so set (v0+k)&mask takes inserts
// k, k+sets, k+2*sets, ...
func (t *TLB) bulkInsert(v0, n uint64) {
	if n == 0 {
		return
	}
	if t.ways > maxBulkWays {
		// Very wide (fully associative) geometry: scratch would not fit;
		// keep the per-page path.
		for i := uint64(0); i < n; i++ {
			t.insert(v0 + i)
		}
		return
	}
	sets := uint64(t.sets)
	ways := t.ways
	mFull, mRem := n/sets, n%sets
	cnt := n
	if cnt > sets {
		cnt = sets
	}
	clockBase := t.clock
	var order [maxBulkWays]int32
	var ots [maxBulkWays]uint64
	for k := uint64(0); k < cnt; k++ {
		s := (v0 + k) & t.setMask
		m := mFull
		if k < mRem {
			m++
		}
		if m == 0 {
			continue
		}
		base := int(s) * ways
		// Victim sequence sigma: empties in way order, then valid entries
		// sorted by timestamp (strictly increasing among valid entries, so
		// the order is total and matches fillSet's oldest-first scan).
		e0 := 0
		nPre := 0
		for w := 0; w < ways; w++ {
			if t.tags[base+w] == 0 {
				order[e0] = int32(w)
				e0++
			} else {
				nPre++
			}
		}
		pre := order[e0 : e0+nPre]
		p := 0
		for w := 0; w < ways; w++ {
			if t.tags[base+w] != 0 {
				ts := t.ts[base+w]
				q := p
				for q > 0 && ots[q-1] > ts {
					pre[q] = pre[q-1]
					ots[q] = ots[q-1]
					q--
				}
				pre[q] = int32(w)
				ots[q] = ts
				p++
			}
		}
		vpn := v0 + k
		idx := k
		pop := 0
		var w int32
		for tt := uint64(0); tt < m; tt++ {
			if pop == ways {
				pop = 0
			}
			w = order[pop]
			pop++
			i := base + int(w)
			t.tags[i] = vpn<<1 | 1
			t.ts[i] = clockBase + idx + 1
			vpn += sets
			idx += sets
		}
		t.mru[s] = w
	}
	t.clock = clockBase + n
}

// Flush invalidates all entries (and the second level, when private),
// modeling address-space churn after JIT page remapping.
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = 0
	}
	if t.next != nil {
		t.next.Flush()
	}
}

// ResetStats zeroes the counters (second level included).
func (t *TLB) ResetStats() {
	t.Stats = TLBStats{}
	if t.next != nil {
		t.next.Stats = TLBStats{}
	}
}

// TLBSet groups a core's translation structures.
type TLBSet struct {
	ITLB, DTLB *TLB
	STLB       *TLB
}

// NewTLBSet builds I-TLB and D-TLB backed by a shared unified STLB from a
// machine config.
func NewTLBSet(cfg *machine.Config) *TLBSet {
	stlb := NewTLB("STLB", cfg.STLB, nil)
	return &TLBSet{
		ITLB: NewTLB("ITLB", cfg.ITLB, stlb),
		DTLB: NewTLB("DTLB", cfg.DTLB, stlb),
		STLB: stlb,
	}
}

// RenewTLBSet returns a TLB set in exactly the state NewTLBSet(cfg)
// builds, resetting s in place when its geometry matches cfg's (see
// RenewCache) and allocating otherwise.
func RenewTLBSet(s *TLBSet, cfg *machine.Config) *TLBSet {
	if s == nil || !s.ITLB.fits(cfg.ITLB) || !s.DTLB.fits(cfg.DTLB) || !s.STLB.fits(cfg.STLB) {
		return NewTLBSet(cfg)
	}
	s.ITLB.reset()
	s.DTLB.reset()
	s.STLB.reset()
	return s
}

// fits reports whether NewTLB would build t's geometry from g.
func (t *TLB) fits(g machine.TLBGeom) bool {
	ways := g.Ways
	if ways == 0 {
		ways = g.Entries
	}
	return t.ways == ways && t.sets*t.ways == g.Entries && 1<<t.pageBits == g.PageSize
}

// reset returns t to its freshly built state, keeping storage and the
// second-level link.
func (t *TLB) reset() {
	clear(t.tags)
	clear(t.ts)
	clear(t.mru)
	t.clock = 0
	t.Stats = TLBStats{}
}

// Flush invalidates everything.
func (s *TLBSet) Flush() {
	s.ITLB.Flush()
	s.DTLB.Flush()
	s.STLB.Flush()
}

// ResetStats zeroes all counters.
func (s *TLBSet) ResetStats() {
	s.ITLB.Stats = TLBStats{}
	s.DTLB.Stats = TLBStats{}
	s.STLB.Stats = TLBStats{}
}
