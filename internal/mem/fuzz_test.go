package mem

import (
	"testing"

	"repro/internal/machine"
)

// FuzzCacheAccess drives a cache with arbitrary byte-derived access
// sequences and checks the structural invariants: stats add up, a just-
// accessed line probes present. It then builds 1–4 byte ranges from the
// same input and requires the bulk InsertRanges sweep on an untouched cache
// to match per-line Insert on another: equal stats, equal residency.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 128}, uint8(0))
	f.Add([]byte{7, 7, 7, 7}, uint8(1))
	// Two overlapping ranges, each wrapping the set space: evictions and
	// residency checks in the bulk sweep.
	f.Add([]byte{0, 0, 0xff, 0x3f, 0, 0x10, 0, 0x20, 5}, uint8(0))
	// Three disjoint 16-line ranges on the same sets of the 2-way cache:
	// the third evicts.
	f.Add([]byte{0, 0, 0, 4, 0, 0x10, 0, 4, 0, 0x20, 0, 4, 0, 0}, uint8(0))
	// A re-warm over a one-line-per-set range: it skips the resident
	// line, fills the second way, then evicts.
	f.Add([]byte{0, 0, 0, 8, 0, 0, 0, 0x18, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, policyByte uint8) {
		policy := LRU
		if policyByte%2 == 1 {
			policy = Random
		}
		g := machine.CacheGeom{SizeBytes: 4096, LineBytes: 64, Ways: 2}
		c := NewCache("fuzz", g, policy)
		var accesses, hits uint64
		for i := 0; i+4 <= len(data); i += 4 {
			addr := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 | uint64(data[i+3])<<24
			if c.Access(addr) {
				hits++
			}
			accesses++
			if !c.Probe(addr) {
				t.Fatalf("line %x absent immediately after access", addr)
			}
		}
		if c.Stats.Accesses != accesses {
			t.Fatalf("access count %d vs %d", c.Stats.Accesses, accesses)
		}
		if c.Stats.Misses != accesses-hits {
			t.Fatalf("miss accounting: %d misses, %d accesses, %d hits", c.Stats.Misses, accesses, hits)
		}
		bulk, ref := NewCache("bulk", g, LRU), NewCache("ref", g, LRU)
		ranges := make([][2]uint64, 1+len(data)%4)
		for i := range ranges {
			var b [4]uint64
			for k := range b {
				if len(data) > 0 {
					b[k] = uint64(data[(4*i+k)%len(data)])
				}
			}
			// Start within 64 KiB, size up to four times the cache.
			start := b[0] | b[1]<<8
			ranges[i] = [2]uint64{start, start + (b[2]|b[3]<<8)&0x3fff}
		}
		bulk.InsertRanges(ranges)
		for _, r := range ranges {
			for a := r[0]; a < r[1]; a += 64 {
				ref.Insert(a)
			}
		}
		if bulk.Stats != ref.Stats {
			t.Fatalf("ranges %v: bulk stats %+v, per-line %+v", ranges, bulk.Stats, ref.Stats)
		}
		for _, r := range ranges {
			for a := r[0]; a < r[1]; a += 64 {
				if bulk.Probe(a) != ref.Probe(a) {
					t.Fatalf("ranges %v: residency of %#x differs", ranges, a)
				}
			}
		}
	})
}

// FuzzTLBLookup checks the TLB invariants under arbitrary address streams,
// including the two-level interaction: walk misses + STLB hits never
// exceed lookups.
func FuzzTLBLookup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		stlb := NewTLB("stlb", machine.TLBGeom{Entries: 16, Ways: 0, PageSize: 4096}, nil)
		tlb := NewTLB("tlb", machine.TLBGeom{Entries: 4, Ways: 0, PageSize: 4096}, stlb)
		for i := 0; i+3 <= len(data); i += 3 {
			addr := uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16
			tlb.Lookup(addr)
			// A page looked up twice in a row must hit the second time.
			if !tlb.Lookup(addr) {
				t.Fatalf("page of %x missed immediately after fill", addr)
			}
		}
		s := tlb.Stats
		if s.Misses+s.SecondLevelHits > s.Lookups {
			t.Fatalf("impossible stats: %+v", s)
		}
	})
}
