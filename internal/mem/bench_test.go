package mem

import (
	"testing"

	"repro/internal/machine"
)

// l1Geom is an L1D-shaped cache: 32 KiB, 8-way, 64 sets.
func l1Geom() machine.CacheGeom {
	return machine.CacheGeom{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 8}
}

// BenchmarkCacheAccessMRUHit hits the same line repeatedly: the MRU-way
// fast path, the most common case in real access streams.
func BenchmarkCacheAccessMRUHit(b *testing.B) {
	c := NewCache("b", l1Geom(), LRU)
	c.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

// BenchmarkCacheAccessHit alternates between two lines of one set, so
// every access hits a non-MRU way and takes the full scan.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache("b", l1Geom(), LRU)
	const stride = 32 * 1024 / 8 // one set apart across ways
	c.Access(0)
	c.Access(stride)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i&1) * stride)
	}
}

// BenchmarkCacheAccessMiss streams through a footprint far beyond the
// cache size: every access misses and evicts.
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := NewCache("b", l1Geom(), LRU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64 % (16 << 20))
	}
}

// BenchmarkCacheInsertRange measures the bulk prewarm path over a
// cache-sized range: each iteration renews the cache first, as the
// simulation arena does before every prewarm.
func BenchmarkCacheInsertRange(b *testing.B) {
	c := NewCache("b", l1Geom(), LRU)
	b.SetBytes(32 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = RenewCache(c, "b", l1Geom(), LRU)
		c.InsertRange(0, 32*1024)
	}
}

// BenchmarkTLBLookupHit measures the TLB hit path (one hot page).
func BenchmarkTLBLookupHit(b *testing.B) {
	t := NewTLB("b", machine.TLBGeom{Entries: 64, Ways: 4, PageSize: 4096}, nil)
	t.Lookup(0x4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(0x4000)
	}
}

// BenchmarkTLBLookupMiss strides a page-per-access footprint far beyond
// TLB reach, with an STLB behind the first level as in the machine models.
func BenchmarkTLBLookupMiss(b *testing.B) {
	stlb := NewTLB("stlb", machine.TLBGeom{Entries: 1536, Ways: 12, PageSize: 4096}, nil)
	t := NewTLB("b", machine.TLBGeom{Entries: 64, Ways: 4, PageSize: 4096}, stlb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(uint64(i) * 4096 % (1 << 30))
	}
}
