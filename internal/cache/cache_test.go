package cache

import (
	"reflect"
	"testing"
)

func smallCache(lat int, lower *Cache, memLat int) *Cache {
	return New(Config{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: lat},
		lower, nil, memLat)
}

func TestHitLatency(t *testing.T) {
	c := smallCache(2, nil, 100)
	c.Access(0x1000, 0) // install
	done := c.Access(0x1000, 1000)
	if done != 1002 {
		t.Errorf("hit done = %d, want 1002", done)
	}
}

func TestMissGoesToMemory(t *testing.T) {
	c := smallCache(2, nil, 100)
	done := c.Access(0x2000, 0)
	if done < 100 {
		t.Errorf("miss done = %d, want >= 100", done)
	}
	if c.Misses != 1 || c.Accesses != 1 {
		t.Errorf("counters = %d/%d", c.Misses, c.Accesses)
	}
}

func TestInFlightFillDelaysSecondAccess(t *testing.T) {
	c := smallCache(2, nil, 100)
	first := c.Access(0x3000, 0)
	// Second access to the same line while the fill is in flight must not
	// return hit latency.
	second := c.Access(0x3004, 1)
	if second < first {
		t.Errorf("second access done=%d before fill done=%d", second, first)
	}
	// After the fill completes, it is a plain hit.
	post := c.Access(0x3008, first+10)
	if post != first+12 {
		t.Errorf("post-fill access done=%d, want %d", post, first+12)
	}
}

func TestLRUEviction(t *testing.T) {
	// 1KB, 2-way, 64B lines -> 8 sets. Lines mapping to set 0: addresses
	// with line index multiple of 8.
	c := smallCache(1, nil, 50)
	a, b2, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a, 0)
	c.Access(b2, 100)
	c.Access(a, 200) // refresh a; b2 becomes LRU
	c.Access(d, 300) // evicts b2
	if !c.Contains(a) {
		t.Error("a evicted despite LRU refresh")
	}
	if c.Contains(b2) {
		t.Error("b2 should have been evicted")
	}
	if !c.Contains(d) {
		t.Error("d missing after fill")
	}
}

func TestTwoLevelHitPath(t *testing.T) {
	l2 := New(Config{Name: "l2", SizeBytes: 1 << 16, Ways: 4, LineBytes: 64, Latency: 10}, nil, nil, 100)
	l1 := New(Config{Name: "l1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Latency: 1}, l2, nil, 0)
	l1.Access(0x4000, 0) // miss everywhere -> memory
	// Evict from L1 by filling its set, then re-access: should hit L2.
	for i := uint64(1); i <= 2; i++ {
		l1.Access(0x4000+i*1024, 500+i)
	}
	if l1.Contains(0x4000) {
		t.Skip("set mapping kept the line; geometry changed")
	}
	done := l1.Access(0x4000, 10000)
	// L1 miss (1) + L2 hit (10): far less than memory (100).
	if done-10000 > 50 {
		t.Errorf("L2 hit path took %d cycles", done-10000)
	}
}

func TestBusOccupancySerializesTransfers(t *testing.T) {
	b := NewBus(BusConfig{WidthBytes: 16, CyclesPerBeat: 4})
	first := b.Acquire(0, 64) // 4 beats * 4 cycles
	if first != 16 {
		t.Fatalf("first transfer done = %d", first)
	}
	second := b.Acquire(0, 64) // queued behind the first
	if second != 32 {
		t.Errorf("second transfer done = %d, want 32", second)
	}
	third := b.Acquire(100, 16)
	if third != 104 {
		t.Errorf("idle bus transfer done = %d, want 104", third)
	}
}

func TestNextLinePrefetchInstalls(t *testing.T) {
	cfg := Config{Name: "pf", SizeBytes: 1 << 12, Ways: 2, LineBytes: 64, Latency: 1,
		NextLinePrefetch: true}
	c := New(cfg, nil, nil, 50)
	c.Access(0x8000, 0)
	if !c.Contains(0x8040) {
		t.Error("next line not prefetched")
	}
	if c.Prefetches != 1 {
		t.Errorf("prefetches = %d", c.Prefetches)
	}
	// The prefetched line's fill time is honored: an immediate access must
	// wait, not hit in 1 cycle.
	done := c.Access(0x8040, 2)
	if done <= 3 {
		t.Errorf("prefetched line returned too early: %d", done)
	}
}

func TestBankMapping(t *testing.T) {
	c := smallCache(1, nil, 10)
	if c.Bank(0x0, 2) == c.Bank(0x40, 2) {
		t.Error("adjacent lines should map to different banks")
	}
	if c.Bank(0x0, 2) != c.Bank(0x80, 2) {
		t.Error("lines two apart should share a bank")
	}
	if c.Bank(0x0, 2) != c.Bank(0x3F, 2) {
		t.Error("same line must be one bank")
	}
}

func TestDefaultHierarchyGeometry(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	if h.ICache.Config().SizeBytes != 32<<10 || h.DCache.Config().SizeBytes != 32<<10 {
		t.Error("L1 sizes")
	}
	if h.L2.Config().SizeBytes != 2<<20 || h.L2.Config().Ways != 8 {
		t.Error("L2 geometry")
	}
	// End-to-end memory access cost is in the right ballpark: L1 miss +
	// L2 miss + 150 memory + buses.
	done := h.DCache.Access(0x9999000, 0)
	if done < 150 || done > 400 {
		t.Errorf("cold access = %d cycles", done)
	}
}

func TestMissRate(t *testing.T) {
	c := smallCache(1, nil, 10)
	c.Access(0x100, 0)
	c.Access(0x100, 50)
	c.Access(0x100, 100)
	if r := c.MissRate(); r < 0.3 || r > 0.35 {
		t.Errorf("miss rate = %f, want 1/3", r)
	}
}

// TestHierarchyResetMatchesNew: a used hierarchy, Reset, is deep-equal to a
// freshly built one -- tags, LRU clocks, in-flight fills, buses, counters.
func TestHierarchyResetMatchesNew(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	for i := uint64(0); i < 5000; i++ {
		h.DCache.Access(i*4160, i)
		h.ICache.Access(i*64, i)
	}
	if h.L2.Accesses == 0 || len(h.L2.mshr) == 0 {
		t.Fatal("warm-up left the hierarchy cold; the test is vacuous")
	}
	h.Reset()
	if fresh := NewHierarchy(cfg); !reflect.DeepEqual(h, fresh) {
		t.Fatal("Reset hierarchy differs from a new one")
	}
}
