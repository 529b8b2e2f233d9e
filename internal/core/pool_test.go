package core

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
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

// gcCycles reads the collector's completed-cycle count.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// countingOwner takes back external memory.
type countingOwner struct{ n int }

func (o *countingOwner) ReleaseExternal(uint64) { o.n++ }

// TestRecyclingSurvivesGC pins that the free lists are the manager's,
// not the garbage collector's: a message built, filled and released with
// two collections before the next one is built again in the same arena,
// and the whole round allocates nothing. With sync.Pools the collections
// emptied the pools, so every round made a fresh arena and refilled the
// pools' per-P storage. A bare record (external memory) comes back the
// same way.
func TestRecyclingSurvivesGC(t *testing.T) {
	gcCycles() // the process's first metrics read allocates the runtime's tables
	m := NewManager()
	for _, payload := range []int{4<<10 - 64, 800 * 600 * 3} {
		var base uintptr
		round := func() {
			img, err := NewIn[testImage](m, payload+64)
			if err != nil {
				t.Fatalf("NewIn: %v", err)
			}
			if err := img.Data.Resize(payload); err != nil {
				t.Fatalf("Resize: %v", err)
			}
			if a := uintptr(unsafe.Pointer(img)); base == 0 {
				base = a
			} else if a != base {
				t.Fatalf("%d-byte message: arena at %#x after two collections, want %#x", payload, a, base)
			}
			if _, err := Release(img); err != nil {
				t.Fatalf("Release: %v", err)
			}
			runtime.GC()
			runtime.GC()
		}
		round()
		if n := testing.AllocsPerRun(20, round); n != 0 {
			t.Errorf("%d-byte message: %v allocations per round across collections, want 0", payload, n)
		}
	}

	mem := make([]byte, 4<<10)
	owner := &countingOwner{}
	var rec *record
	round := func() {
		b, err := m.NewExternalBuffer(mem, owner, 7)
		if err != nil {
			t.Fatalf("NewExternalBuffer: %v", err)
		}
		if rec == nil {
			rec = b.rec
		} else if b.rec != rec {
			t.Fatalf("bare record %p after two collections, want %p", b.rec, rec)
		}
		img, err := Adopt[testImage](b, 64)
		if err != nil {
			t.Fatalf("Adopt: %v", err)
		}
		if _, err := Release(img); err != nil {
			t.Fatalf("Release: %v", err)
		}
		runtime.GC()
		runtime.GC()
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("external buffer: %v allocations per round across collections, want 0", n)
	}
	if owner.n != 22 {
		t.Errorf("owner took its memory back %d times, want 22", owner.n)
	}
}

// TestFreeListRetention pins the retention rule. A list never holds more
// records than its class once had out at the same time; what a burst
// left over is released once a whole trim window has passed without it
// being taken, at most 2*trimAfter collections after the burst; and a
// record in lockstep use is never trimmed.
func TestFreeListRetention(t *testing.T) {
	const burst, size = 8, 4 << 10
	m := NewManager()
	c := classFor(size)
	pooled := func() int {
		m.pool.mu.Lock()
		defer m.pool.mu.Unlock()
		return m.pool.classes[c].n
	}

	bufs := make([]Buffer, burst)
	for i := range bufs {
		bufs[i] = m.GetBuffer(size)
	}
	for _, b := range bufs {
		b.Discard()
	}
	if n := pooled(); n != burst {
		t.Fatalf("after the burst the list holds %d records, want %d", n, burst)
	}
	if st := m.Stats(); st.BytesPooled != burst*size || st.Fresh != burst {
		t.Fatalf("after the burst: bytes pooled %d, fresh %d; want %d, %d", st.BytesPooled, st.Fresh, burst*size, burst)
	}

	// Steady single-record traffic: one collection and trimEvery Gets
	// per round, so every round looks at the cycle count once.
	for round := 1; round <= 2*trimAfter && pooled() > 1; round++ {
		runtime.GC()
		for range trimEvery {
			m.GetBuffer(size).Discard()
			if n := pooled(); n > burst {
				t.Fatalf("round %d: the list holds %d records, more than the %d ever out at once", round, n, burst)
			}
		}
	}
	if n := pooled(); n != 1 {
		t.Fatalf("%d records still pooled %d collections after the burst, want 1", n, 2*trimAfter)
	}
	if st := m.Stats(); st.BytesPooled != size || st.Fresh != burst {
		t.Fatalf("after the trim: bytes pooled %d, fresh %d; want %d, %d", st.BytesPooled, st.Fresh, size, burst)
	}

	// Lockstep: one record out at a time is taken in every window, so it
	// stays through any number of collections.
	b := m.GetBuffer(size)
	rec := b.rec
	b.Discard()
	for range 3 * trimAfter {
		runtime.GC()
		for range trimEvery {
			b := m.GetBuffer(size)
			if b.rec != rec {
				t.Fatalf("lockstep record %p was replaced by %p", rec, b.rec)
			}
			b.Discard()
		}
	}
	if st := m.Stats(); st.Fresh != burst {
		t.Fatalf("lockstep traffic made %d fresh records", st.Fresh-burst)
	}
}

// TestFreeListConcurrentRecycle runs GetBuffer/Discard and external
// Adopt/Release from several goroutines on one manager, with collections
// in between so that trims run under the same traffic. A record handed
// to two goroutines at once shows up as a buffer whose bytes another
// goroutine overwrote; under -race, as a data race.
func TestFreeListConcurrentRecycle(t *testing.T) {
	const workers, rounds = 4, 2000
	m := NewManager()
	sizes := []int{1 << 10, 4 << 10, 64 << 10}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := &countingOwner{}
			mem := make([]byte, 1<<10)
			held := make([]Buffer, 0, 4)
			for i := range rounds {
				if i%500 == 0 {
					runtime.GC()
				}
				b := m.GetBuffer(sizes[(w+i)%len(sizes)])
				bs := b.Bytes()
				bs[0], bs[len(bs)-1] = byte(w), byte(w)
				held = append(held, b)
				if len(held) == cap(held) {
					for _, h := range held {
						if bs := h.Bytes(); bs[0] != byte(w) || bs[len(bs)-1] != byte(w) {
							t.Errorf("worker %d: a held buffer was written by another worker", w)
						}
						h.Discard()
					}
					held = held[:0]
				}
				e, err := m.NewExternalBuffer(mem, owner, uint64(i))
				if err != nil {
					t.Error(err)
					return
				}
				img, err := Adopt[testImage](e, 64)
				if err != nil {
					t.Error(err)
					return
				}
				Release(img)
			}
			for _, h := range held {
				h.Discard()
			}
			if owner.n != rounds {
				t.Errorf("worker %d: owner took its memory back %d times, want %d", w, owner.n, rounds)
			}
		}()
	}
	wg.Wait()
	if st := m.Stats(); st.Live != 0 || st.Allocs != st.Frees {
		t.Fatalf("after the run: live %d, allocs %d, frees %d", st.Live, st.Allocs, st.Frees)
	}
}

// BenchmarkRecycleParallel is the cost of one GetBuffer/Discard pair
// when several goroutines share a manager, the case a per-manager lock
// can lose to a per-P pool: run it with -cpu 2 (or more).
func BenchmarkRecycleParallel(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.GetBuffer(4 << 10).Discard()
		}
	})
}
