package shm

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"time"
	"unsafe"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
)

// skipUnlessFree skips the test when the filesystem backing dir
// verifiably lacks `need` free bytes (0 means unknown — proceed).
func skipUnlessFree(t *testing.T, dir string, need uint64) {
	t.Helper()
	if free := DirBytesFree(dir); free > 0 && free < need {
		msgtest.NotVerified(t, "only %d bytes free under %s, need %d", free, dir, need)
	}
}

func TestStrideFor(t *testing.T) {
	cases := []struct{ slotSize, want int }{
		{minSlotSize, minSlotSize * slotGrowth},
		{1 << 20, 1 << 20 * slotGrowth},
		// The top pooled class keeps real headroom into large-object
		// territory: 16 × 64 MiB = 1 GiB, still under the cap.
		{maxSlotSize, maxSlotSize * slotGrowth},
	}
	for _, c := range cases {
		got := strideFor(c.slotSize)
		if got != c.want {
			t.Errorf("strideFor(%d) = %d, want %d", c.slotSize, got, c.want)
		}
		if got < c.slotSize || got > maxLargeBytes {
			t.Errorf("strideFor(%d) = %d out of [slotSize, maxLargeBytes]", c.slotSize, got)
		}
	}
}

// TestLargeObjectRoundTrip drives a >64 MiB message through the full
// descriptor path: large-object Acquire, Share, mapper Resolve — the
// subscriber must see the publisher's exact bytes with zero copies, and
// releasing everything must reuse (not leak) the dedicated segment.
func TestLargeObjectRoundTrip(t *testing.T) {
	const size = 80 << 20 // above maxSlotSize: forced onto the large path
	dir := t.TempDir()
	skipUnlessFree(t, dir, 4*size)
	var stats obs.ShmStats
	s := testStore(t, Options{Dir: dir, Stats: &stats})

	raw, h, ok := s.Acquire(size)
	if !ok {
		t.Fatal("Acquire declined a large-object capacity")
	}
	if len(raw) < size {
		t.Fatalf("large grant short: %d < %d", len(raw), size)
	}
	// Stamp scattered pages rather than all 80 MiB: the extent is sparse,
	// and the stamps prove the mapping is shared, not copied.
	marks := []int{0, pageSize - 1, size / 3, size / 2, size - 1}
	for i, off := range marks {
		raw[off] = byte(0xc0 + i)
	}
	peer, gen, err := s.AcquirePeer(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Share(h, peer, gen, size)
	if err != nil {
		t.Fatalf("Share of a large slot: %v", err)
	}
	m, err := NewMapper(s.Prefix(), peer, gen, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mem, held, err := m.Resolve(d)
	if err != nil {
		t.Fatalf("Resolve of a large descriptor: %v", err)
	}
	if len(mem) != size {
		t.Fatalf("resolved %d bytes, want %d", len(mem), size)
	}
	for i, off := range marks {
		if mem[off] != byte(0xc0+i) {
			t.Fatalf("byte %d = %#x, want %#x", off, mem[off], 0xc0+i)
		}
	}
	// Shared, not copied: the publisher's write after Share is visible.
	raw[size/4] = 0x77
	if mem[size/4] != 0x77 {
		t.Fatal("subscriber mapping does not alias the publisher's segment")
	}
	m.ReleaseExternal(held)
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after all releases")
	}

	// The idle segment is cached: the next large acquire of a fitting
	// capacity reuses it (same handle, bumped generation).
	raw2, h2, ok := s.Acquire(70 << 20)
	if !ok {
		t.Fatal("second large Acquire declined")
	}
	if h2 != h {
		t.Fatalf("idle large segment not reused: %#x then %#x", h, h2)
	}
	s.Release(h2, raw2)
	if stats.Fallbacks.Load() != 0 {
		t.Fatalf("fallbacks = %d on the large path", stats.Fallbacks.Load())
	}
}

// TestLargeSegmentTrim: only largeCacheSegs idle large segments stay
// mapped for reuse; the rest are unlinked as their last reference drops,
// so a burst of point clouds does not pin its high-water mark forever.
func TestLargeSegmentTrim(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	s := testStore(t, Options{Dir: dir})
	type alloc struct {
		raw []byte
		h   uint64
	}
	var live []alloc
	for i := 0; i < n; i++ {
		// All concurrently live, so each lands in its own segment. The
		// extents are sparse — nothing is written — so this is cheap even
		// though every one is >64 MiB.
		raw, h, ok := s.Acquire(maxSlotSize + 1)
		if !ok {
			t.Fatalf("Acquire %d declined", i)
		}
		live = append(live, alloc{raw, h})
	}
	segFiles := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, e := range ents {
			if !e.IsDir() && bytes.Contains([]byte(e.Name()), []byte("-seg")) {
				count++
			}
		}
		return count
	}
	if got := segFiles(); got != n {
		t.Fatalf("%d segment files while %d large messages live", got, n)
	}
	for _, a := range live {
		s.Release(a.h, a.raw)
	}
	if got := segFiles(); got != largeCacheSegs {
		t.Fatalf("%d segment files after release, want the %d-segment reuse cache", got, largeCacheSegs)
	}
	s.mu.Lock()
	mapped := 0
	for _, seg := range s.segs {
		if seg != nil {
			mapped++
		}
	}
	s.mu.Unlock()
	if mapped != largeCacheSegs {
		t.Fatalf("%d segments still mapped, want %d", mapped, largeCacheSegs)
	}
}

// TestGrowArenaWithinStride is the unit view of cross-class growth: a
// slot extends in place up to its stride reservation, the grown window
// is shareable at its full length, and one byte past the stride is
// refused rather than relocated.
func TestGrowArenaWithinStride(t *testing.T) {
	s := testStore(t, Options{})
	raw, h, ok := s.Acquire(minSlotSize)
	if !ok {
		t.Fatal("Acquire declined")
	}
	stride := minSlotSize * slotGrowth
	base := &raw[0]
	grown, ok := s.GrowArena(h, stride)
	if !ok {
		t.Fatal("GrowArena declined a grow within the stride")
	}
	if len(grown) != stride {
		t.Fatalf("grown window = %d, want %d", len(grown), stride)
	}
	if &grown[0] != base {
		t.Fatal("GrowArena moved the arena")
	}
	if _, ok := s.GrowArena(h, stride+1); ok {
		t.Fatal("GrowArena accepted a grow past the stride reservation")
	}
	grown[stride-1] = 0x5a
	peer, gen, err := s.AcquirePeer(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Share(h, peer, gen, stride+1); err == nil {
		t.Fatal("Share accepted a length beyond the granted window")
	}
	d, err := s.Share(h, peer, gen, stride)
	if err != nil {
		t.Fatalf("Share at the grown length: %v", err)
	}
	m, err := NewMapper(s.Prefix(), peer, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mem, held, err := m.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != stride || mem[stride-1] != 0x5a {
		t.Fatalf("resolved grown slot: len=%d last=%#x", len(mem), mem[len(mem)-1])
	}
	m.ReleaseExternal(held)
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle")
	}
}

// grownMsg exercises several independently grown fields, so random op
// orders produce varied arena layouts.
type grownMsg struct {
	A core.Vector[uint8]
	S core.String
	B core.Vector[uint64]
	T core.String
	C core.Vector[uint8]
}

// TestResizeAcrossClassesProperty is the resize-migration property test:
// the SAME random sequence of grows applied to a store-backed message
// (smallest slot class, so most sequences cross classes) and to a
// roomy heap-arena shadow must produce byte-for-byte identical wire
// bytes — in-place tier migration is invisible to the format. Run under
// -race via the repo's race target.
func TestResizeAcrossClassesProperty(t *testing.T) {
	s := testStore(t, Options{})
	mgr := core.NewManager()
	mgr.SetBackingStore(s)
	heap := core.NewManager()

	rng := rand.New(rand.NewSource(7))
	alpha := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	for trial := 0; trial < 30; trial++ {
		shmMsg, err := core.NewIn[grownMsg](mgr, minSlotSize)
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := core.NewIn[grownMsg](heap, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		base := uintptr(unsafe.Pointer(shmMsg))

		// One op per field (resizes are one-shot), random order, sizes
		// chosen so the total stays inside the slot's stride but usually
		// far outside its 4 KiB class.
		ops := []func() error{
			func() error {
				n := 1 + rng.Intn(30000)
				if err := shmMsg.A.Resize(n); err != nil {
					return err
				}
				if err := shadow.A.Resize(n); err != nil {
					return err
				}
				rng.Read(shmMsg.A.Slice())
				copy(shadow.A.Slice(), shmMsg.A.Slice())
				return nil
			},
			func() error {
				v := alpha(1 + rng.Intn(60))
				if err := shmMsg.S.Set(v); err != nil {
					return err
				}
				return shadow.S.Set(v)
			},
			func() error {
				n := 1 + rng.Intn(2000)
				if err := shmMsg.B.Resize(n); err != nil {
					return err
				}
				if err := shadow.B.Resize(n); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					x := rng.Uint64()
					*shmMsg.B.At(i) = x
					*shadow.B.At(i) = x
				}
				return nil
			},
			func() error {
				v := alpha(1 + rng.Intn(60))
				if err := shmMsg.T.Set(v); err != nil {
					return err
				}
				return shadow.T.Set(v)
			},
			func() error {
				n := 1 + rng.Intn(10000)
				if err := shmMsg.C.Resize(n); err != nil {
					return err
				}
				if err := shadow.C.Resize(n); err != nil {
					return err
				}
				rng.Read(shmMsg.C.Slice())
				copy(shadow.C.Slice(), shmMsg.C.Slice())
				return nil
			},
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for i, op := range ops {
			if err := op(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
			if got := uintptr(unsafe.Pointer(shmMsg)); got != base {
				t.Fatalf("trial %d op %d: arena moved %#x -> %#x", trial, i, base, got)
			}
		}
		wire, err := core.Bytes(shmMsg)
		if err != nil {
			t.Fatal(err)
		}
		shadowWire, err := core.Bytes(shadow)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, shadowWire) {
			t.Fatalf("trial %d: store-backed wire bytes (%d) differ from heap shadow (%d)",
				trial, len(wire), len(shadowWire))
		}
		if _, err := core.Release(shmMsg); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Release(shadow); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Idle() {
		t.Fatal("store not idle after all trials")
	}
}

// TestCloseDefersUnlinkUntilLeaseDrains: Close with a subscriber still
// holding a resolved large message must NOT unlink the segment under
// its reader. The mapping stays valid, the files stay on disk, and the
// janitor finishes the teardown — signaled by TeardownDone — only after
// the last lease drains.
func TestCloseDefersUnlinkUntilLeaseDrains(t *testing.T) {
	dir := t.TempDir()
	skipUnlessFree(t, dir, 1<<28)
	requireQueue(t)
	s, err := NewStore(Options{Dir: dir, LeaseTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// No testStore cleanup here: Close IS the scenario.
	const size = maxSlotSize + 1 // large path: unlink-deferral matters most there
	raw, h, ok := s.Acquire(size)
	if !ok {
		t.Fatal("Acquire declined")
	}
	payload := bytes.Repeat([]byte{0xd1}, pageSize)
	copy(raw, payload)
	peer, gen, err := s.AcquirePeer(uint32(os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Share(h, peer, gen, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(s.Prefix(), peer, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartHeartbeat(16 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	mem, held, err := m.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	// The publisher is done with the message; only the subscriber's
	// lease still pins the slot.
	s.Release(h, raw)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.TeardownDone():
		t.Fatal("teardown completed while a subscriber lease held the segment")
	case <-time.After(300 * time.Millisecond): // several janitor ticks
	}
	segFile := segPath(s.Prefix(), uint64(h>>32))
	if _, err := os.Stat(segFile); err != nil {
		t.Fatalf("segment file unlinked under a live reader: %v", err)
	}
	if !bytes.Equal(mem[:len(payload)], payload) {
		t.Fatal("mapped bytes changed after deferred Close")
	}
	// Drain: the release returns the slot reference, the mapper's Close
	// publishes the drained sentinel, and the janitor reaps + tears down.
	m.ReleaseExternal(held)
	m.Close()
	select {
	case <-s.TeardownDone():
	case <-time.After(5 * time.Second):
		t.Fatal("teardown never completed after the last lease drained")
	}
	if _, err := os.Stat(segFile); !os.IsNotExist(err) {
		t.Fatalf("segment file still present after teardown: %v", err)
	}
	if _, err := os.Stat(ctlPath(s.Prefix())); !os.IsNotExist(err) {
		t.Fatalf("control file still present after teardown: %v", err)
	}
}
