package core

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestClassForBoundaries pins the size-class mapping at the exact edges
// where an off-by-one would either waste a class or hand out a short
// buffer: the minimum, each power-of-two boundary, and one past the
// largest pooled class.
func TestClassForBoundaries(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{-1, 0}, // degenerate requests clamp to the smallest class
		{0, 0},
		{1, 0},         // below minimum class → class 0 (1 KiB)
		{1 << 10, 0},   // exactly 1 KiB → class 0
		{1<<10 + 1, 1}, // one past 1 KiB → next class (2 KiB)
		{1 << 11, 1},
		{1 << 26, maxClassShift - minClassShift}, // exactly 64 MiB → largest class
		{1<<26 + 1, -1},                          // one past the largest class → direct allocation
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestGetBufferExactClassBoundary pins the alignment-slack regression:
// GetBuffer used to pad every pool request by arenaAlign-1, which pushed
// a capacity sitting exactly on a class boundary into the next class —
// and a request of exactly the LARGEST class (1<<26) out of the pool
// entirely, onto a direct allocation that could never be recycled. At
// the transport layer that turned every 64 MiB receive into a fresh
// allocation. The request must go to the pool at its exact size; Go's
// allocator returns arenaAlign-aligned storage for these sizes, so the
// raw allocation is exactly the class size and fully usable.
func TestGetBufferExactClassBoundary(t *testing.T) {
	m := NewManager()
	for _, capacity := range []int{1 << 10, 1 << 20, 1 << 26} {
		b := m.GetBuffer(capacity)
		if len(b.rec.raw) != capacity {
			t.Errorf("GetBuffer(%d) took a %d-byte raw allocation, want the exact class size",
				capacity, len(b.rec.raw))
		}
		if len(b.Bytes()) < capacity {
			t.Errorf("GetBuffer(%d) arena has only %d usable bytes", capacity, len(b.Bytes()))
		}
		b.Discard()
	}
	// One past a boundary still selects the next class, not a short buffer.
	b := m.GetBuffer(1<<20 + 1)
	if len(b.rec.raw) != 1<<21 {
		t.Errorf("GetBuffer(1<<20+1) raw = %d bytes, want next class (1<<21)", len(b.rec.raw))
	}
	b.Discard()
}

// TestPoolGetNeverShort is the property behind classFor: whatever the
// request size — inside the classes, at their boundaries, or past the
// largest class — get must return at least that many bytes, and
// GetBuffer's aligned arena must still cover the requested capacity.
func TestPoolGetNeverShort(t *testing.T) {
	m := NewManager()
	p := &m.pool
	sizes := []int{1, 2, 1023, 1 << 10, 1<<10 + 1, 4096, 1<<26 - 1, 1 << 26, 1<<26 + 1, 1<<26 + 7}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		sizes = append(sizes, 1+rng.Intn(1<<20))
	}
	for _, n := range sizes {
		r := p.get(m, n)
		if len(r.arena) < n {
			t.Fatalf("pool.get(%d) returned %d usable bytes", n, len(r.arena))
		}
		if c := classFor(n); c < 0 {
			// Over-max direct allocations are rounded up to arenaAlign so
			// the aligned arena can never be short.
			if len(r.raw)%arenaAlign != 0 {
				t.Fatalf("pool.get(%d) over-max allocation has unaligned length %d", n, len(r.raw))
			}
		}
		r.lend().Discard()
	}

	for _, capacity := range []int{16, 1 << 10, 1<<10 + 1, 1 << 26, 1<<26 + 1} {
		b := m.GetBuffer(capacity)
		if len(b.Bytes()) < capacity {
			t.Fatalf("GetBuffer(%d) arena has only %d bytes", capacity, len(b.Bytes()))
		}
		if uintptr(unsafe.Pointer(&b.Bytes()[0]))&(arenaAlign-1) != 0 {
			t.Fatalf("GetBuffer(%d) arena misaligned", capacity)
		}
		b.Discard()
	}
}
