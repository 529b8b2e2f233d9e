package shm

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
)

// deadPID returns the pid of a process that has already exited, for
// leases whose "subscriber" must look crashed to the reaper's liveness
// probe.
func deadPID(t *testing.T) uint32 {
	t.Helper()
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		msgtest.NotVerified(t, "cannot spawn a helper process: %v", err)
	}
	return uint32(cmd.Process.Pid)
}

// waitSlot polls until handle's slot reaches (refs, owner) or fails the
// test after two seconds.
func waitSlot(t *testing.T, s *Store, h uint64, refs int32, owner uint32, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, o := s.SlotRefs(h)
		if r == refs && o == owner {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: refs=%d owner=%#x, want refs=%d owner=%#x", what, r, o, refs, owner)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dropShare gives back peer's reference on h's slot the way the
// subscriber's release does, for tests whose peer has no mapper left
// to release through.
func dropShare(s *Store, h uint64, peer int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, slot, _ := s.lookup(h)
	releaseShared(seg.slot(slot), peer)
}

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	requireQueue(t)
	if opts.Dir == "" {
		opts.Dir = t.TempDir() // exercised layout, isolated from /dev/shm
	}
	s, err := NewStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestDescriptorRoundTrip(t *testing.T) {
	d := Descriptor{SegID: 7, Gen: 1 << 40, Slot: 511, Length: 1 << 20}
	got, err := ParseDescriptor(d.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip %+v != %+v", got, d)
	}
	if _, err := ParseDescriptor(make([]byte, DescriptorSize-1)); err == nil {
		t.Fatal("short descriptor accepted")
	}
}

func TestSlotSizeFor(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, minSlotSize}, {1, minSlotSize}, {minSlotSize, minSlotSize},
		{minSlotSize + 1, minSlotSize << 1}, {maxSlotSize, maxSlotSize}, {maxSlotSize + 1, 0},
	}
	for _, c := range cases {
		if got := slotSizeFor(c.in); got != c.want {
			t.Errorf("slotSizeFor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestAcquireReuseGeneration pins the slot life cycle: a fully released
// slot is reused rather than growing the segment, and reuse bumps the
// generation so descriptors minted for the old occupant go stale.
func TestAcquireReuseGeneration(t *testing.T) {
	s := testStore(t, Options{})
	raw1, h1, ok := s.Acquire(100)
	if !ok {
		t.Fatal("Acquire declined")
	}
	if len(raw1) < 100 {
		t.Fatalf("short slot: %d", len(raw1))
	}
	seg, slot, _ := s.lookup(h1)
	gen1 := seg.slot(slot).gen.Load()
	s.Release(h1, raw1)
	raw2, h2, ok := s.Acquire(100)
	if !ok {
		t.Fatal("second Acquire declined")
	}
	if h2 != h1 {
		t.Fatalf("released slot not reused: %#x then %#x", h1, h2)
	}
	if gen2 := seg.slot(slot).gen.Load(); gen2 == gen1 {
		t.Fatal("slot reuse did not bump generation")
	}
	s.Release(h2, raw2)
	if !s.Idle() {
		t.Fatal("store not idle after full release")
	}
	// Above the pooled classes the store no longer declines: the request
	// lands in a dedicated large-object segment instead of silently
	// dropping the message to the heap (and the topic to TCP).
	rawL, hL, ok := s.Acquire(maxSlotSize + 1)
	if !ok {
		t.Fatal("Acquire declined capacity above the largest slot class")
	}
	if len(rawL) < maxSlotSize+1 {
		t.Fatalf("large slot short: %d", len(rawL))
	}
	if segL, _, ok := s.lookup(hL); !ok || !segL.large {
		t.Fatalf("capacity above the pooled classes not served by a large segment")
	}
	s.Release(hL, rawL)
	if _, _, ok := s.Acquire(maxLargeBytes + 1); ok {
		t.Fatal("Acquire accepted capacity above MaxMessageBytes")
	}
}

// TestResolutionTokenIsSpentOnce pins the idempotence the mapper's
// release gets from the entry generation instead of a sync.Once per
// resolution: a token releases its own resolution once, and neither a
// second release nor one arriving after the entry was reused for a later
// resolution touches anything.
func TestResolutionTokenIsSpentOnce(t *testing.T) {
	s := testStore(t, Options{})
	peer, gen, err := s.AcquirePeer(1234)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(s.Prefix(), peer, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	share := func() (uint64, []byte, Descriptor) {
		raw, h, ok := s.Acquire(4096)
		if !ok {
			t.Fatal("Acquire declined")
		}
		d, err := s.Share(h, peer, gen, 64)
		if err != nil {
			t.Fatal(err)
		}
		return h, raw, d
	}
	h1, raw1, d1 := share()
	_, first, err := m.Resolve(d1)
	if err != nil {
		t.Fatal(err)
	}
	m.ReleaseExternal(first)
	h2, raw2, d2 := share()
	_, second, err := m.Resolve(d2) // takes over the entry `first` vacated
	if err != nil {
		t.Fatal(err)
	}
	if first>>32 != second>>32 || first == second {
		t.Fatalf("tokens %#x then %#x: want the same entry under a new generation", first, second)
	}
	m.ReleaseExternal(first)
	m.ReleaseExternal(0)
	m.ReleaseExternal(^uint64(0))
	if n := m.Outstanding(); n != 1 {
		t.Fatalf("outstanding = %d after stale and malformed releases, want 1", n)
	}
	if refs, owner := s.SlotRefs(h2); refs != 2 || owner != 1<<uint(peer) {
		t.Fatalf("a stale token released a live resolution: refs=%d owner=%#x", refs, owner)
	}
	m.ReleaseExternal(second)
	if n := m.Outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after the last release", n)
	}
	s.Release(h1, raw1)
	s.Release(h2, raw2)
	if !s.Idle() {
		t.Fatal("store not idle after all releases")
	}
}

// TestShareResolveRoundTrip drives the full descriptor path inside one
// process: publisher writes into a slot, shares it with a peer, the
// mapper resolves the descriptor to the same bytes, and releases bring
// the slot back to fully-free.
func TestShareResolveRoundTrip(t *testing.T) {
	var stats obs.ShmStats
	s := testStore(t, Options{Stats: &stats})
	peer, gen, err := s.AcquirePeer(1234)
	if err != nil {
		t.Fatal(err)
	}
	raw, h, ok := s.Acquire(4096)
	if !ok {
		t.Fatal("Acquire declined")
	}
	payload := bytes.Repeat([]byte("rossf"), 100)
	copy(raw, payload)
	d, err := s.Share(h, peer, gen, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if refs, owner := s.SlotRefs(h); refs != 2 || owner != 1<<uint(peer) {
		t.Fatalf("after share: refs=%d owner=%#x", refs, owner)
	}

	m, err := NewMapper(s.Prefix(), peer, gen, &stats)
	if err != nil {
		t.Fatal(err)
	}
	mem, held, err := m.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem, payload) {
		t.Fatal("resolved bytes differ from published bytes")
	}
	m.ReleaseExternal(held)
	m.ReleaseExternal(held) // must be idempotent
	if refs, owner := s.SlotRefs(h); refs != 1 || owner != 0 {
		t.Fatalf("after subscriber release: refs=%d owner=%#x", refs, owner)
	}
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after all releases")
	}
	m.Close()
	if stats.DescriptorSends.Load() != 1 {
		t.Fatalf("descriptor_sends = %d, want 1", stats.DescriptorSends.Load())
	}
	if stats.SegmentsMapped.Load() != 1 { // store's own segment still mapped
		t.Fatalf("segments_mapped = %d, want 1 after mapper close", stats.SegmentsMapped.Load())
	}
}

// TestStaleDescriptorRejected is the cross-process ABA guard: once a
// slot is recycled for a new message, a descriptor for the old occupant
// must fail with core.ErrStaleGeneration, never alias the new bytes.
func TestStaleDescriptorRejected(t *testing.T) {
	s := testStore(t, Options{})
	peer, gen, err := s.AcquirePeer(1)
	if err != nil {
		t.Fatal(err)
	}
	raw, h, _ := s.Acquire(4096)
	d, err := s.Share(h, peer, gen, 64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(s.Prefix(), peer, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Release everything and recycle the slot for a new message.
	dropShare(s, h, peer)
	s.Release(h, raw)
	if _, h2, ok := s.Acquire(4096); !ok || h2 != h {
		t.Fatalf("expected slot reuse, got ok=%v h2=%#x", ok, h2)
	}
	if _, _, err := m.Resolve(d); !errors.Is(err, core.ErrStaleGeneration) {
		t.Fatalf("stale descriptor resolved: err=%v", err)
	}
}

// TestLeaseReap kills the subscriber implicitly — no heartbeat ever
// runs — and verifies the reaper returns its references and frees the
// peer entry within the lease timeout.
func TestLeaseReap(t *testing.T) {
	var stats obs.ShmStats
	s := testStore(t, Options{LeaseTimeout: 80 * time.Millisecond, Stats: &stats})
	peer, gen, err := s.AcquirePeer(99)
	if err != nil {
		t.Fatal(err)
	}
	raw, h, _ := s.Acquire(4096)
	if _, err := s.Share(h, peer, gen, 16); err != nil {
		t.Fatal(err)
	}
	s.RetirePeer(peer)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if refs, owner := s.SlotRefs(h); refs == 1 && owner == 0 {
			break
		}
		if time.Now().After(deadline) {
			refs, owner := s.SlotRefs(h)
			t.Fatalf("lease never reaped: refs=%d owner=%#x", refs, owner)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.LeasesReaped.Load() == 0 {
		t.Fatal("leases_reaped not incremented")
	}
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after reap + release")
	}
	// The freed entry must be reusable.
	if _, _, err := s.AcquirePeer(100); err != nil {
		t.Fatalf("peer slot not recycled: %v", err)
	}
}

// TestHeartbeatKeepsLeaseAlive is the counterpart: a live subscriber
// heartbeating inside the lease interval is never reaped, even while
// idle far longer than the timeout.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	s := testStore(t, Options{LeaseTimeout: 80 * time.Millisecond})
	peer, gen, err := s.AcquirePeer(7)
	if err != nil {
		t.Fatal(err)
	}
	raw, h, _ := s.Acquire(4096)
	if _, err := s.Share(h, peer, gen, 16); err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(s.Prefix(), peer, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartHeartbeat(16 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // 5× the lease timeout
	if refs, owner := s.SlotRefs(h); refs != 2 || owner == 0 {
		t.Fatalf("live lease reaped: refs=%d owner=%#x", refs, owner)
	}
	m.Close() // heartbeat stops; reaper may now collect
	dropShare(s, h, peer)
	s.Release(h, raw)
}

// TestCloseDefersLeaseTeardown pins the async-dispatch fix: Close with
// a resolution still outstanding (a message parked in a dispatch queue
// after the frame pump exited) must keep the heartbeat — and therefore
// the lease and the slot references — alive until the last release.
// The lease pid is a dead process, so if Close stopped the heartbeat
// early the reaper would immediately reclaim the peer.
func TestCloseDefersLeaseTeardown(t *testing.T) {
	var stats obs.ShmStats
	s := testStore(t, Options{LeaseTimeout: 80 * time.Millisecond, Stats: &stats})
	peer, gen, err := s.AcquirePeer(deadPID(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, h, ok := s.Acquire(4096)
	if !ok {
		t.Fatal("Acquire declined")
	}
	payload := bytes.Repeat([]byte{0xab}, 64)
	copy(raw, payload)
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
	m.Close()                          // a callback still holds mem: teardown must wait
	time.Sleep(400 * time.Millisecond) // 5× the lease timeout
	if refs, owner := s.SlotRefs(h); refs != 2 || owner != 1<<uint(peer) {
		t.Fatalf("lease reaped while a resolution was outstanding: refs=%d owner=%#x", refs, owner)
	}
	if !bytes.Equal(mem, payload) {
		t.Fatal("mapped bytes changed while a resolution was outstanding")
	}
	m.ReleaseExternal(held)
	if n := m.Outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after release", n)
	}
	// The release itself returned the slot reference; the drained
	// sentinel lets the reaper free the peer entry on its next tick
	// instead of waiting out the lease (the pid probe would otherwise
	// defer it forever for a live process, and here the pid is dead but
	// the entry was fresh moments ago).
	waitSlot(t, s, h, 1, 0, "slot reference not returned after drain")
	deadline := time.Now().Add(2 * time.Second)
	for stats.LeasesReaped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drained peer entry never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after all releases")
	}
}

// TestReapSparesLiveStalledPeer: a subscriber whose heartbeat went
// stale but whose process is alive (SIGSTOP, swap, long GC) must NOT be
// reaped while its lease is active — its references are still in use.
// Once the publisher retires the peer (connection gone), age-based
// reaping applies again.
func TestReapSparesLiveStalledPeer(t *testing.T) {
	var stats obs.ShmStats
	s := testStore(t, Options{LeaseTimeout: 60 * time.Millisecond, Stats: &stats})
	peer, gen, err := s.AcquirePeer(uint32(os.Getpid())) // this very-much-alive process
	if err != nil {
		t.Fatal(err)
	}
	raw, h, ok := s.Acquire(4096)
	if !ok {
		t.Fatal("Acquire declined")
	}
	if _, err := s.Share(h, peer, gen, 16); err != nil {
		t.Fatal(err)
	}
	// No heartbeat ever runs: the lease is stale almost immediately.
	time.Sleep(300 * time.Millisecond) // 5× the lease timeout
	if refs, owner := s.SlotRefs(h); refs != 2 || owner != 1<<uint(peer) {
		t.Fatalf("live stalled peer reaped: refs=%d owner=%#x", refs, owner)
	}
	if n := stats.LeasesReaped.Load(); n != 0 {
		t.Fatalf("leases_reaped = %d for a live peer", n)
	}
	s.RetirePeer(peer)
	waitSlot(t, s, h, 1, 0, "retired stale peer not reaped")
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after reap + release")
	}
}

// TestReapActiveDeadProcess: an ACTIVE lease whose process has exited
// (SIGKILL before the connection teardown could retire it) is reaped on
// heartbeat age once the pid probe confirms the process is gone.
func TestReapActiveDeadProcess(t *testing.T) {
	s := testStore(t, Options{LeaseTimeout: 60 * time.Millisecond})
	peer, gen, err := s.AcquirePeer(deadPID(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, h, ok := s.Acquire(4096)
	if !ok {
		t.Fatal("Acquire declined")
	}
	if _, err := s.Share(h, peer, gen, 16); err != nil {
		t.Fatal(err)
	}
	// No RetirePeer: the entry stays active, as after a crash whose
	// connection teardown raced the reaper.
	waitSlot(t, s, h, 1, 0, "dead active peer not reaped")
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after reap + release")
	}
}

// TestLeaseGenerationGuardsReusedPeer reconstructs the reap/re-lease
// ABA: a stalled subscriber's peer id is reclaimed and re-leased to a
// new subscriber while the old one still holds a resolution. The old
// mapper must neither resolve further descriptors nor — critically —
// decrement the new lease's references on its late release, and the
// publisher must refuse Shares minted against the old generation.
func TestLeaseGenerationGuardsReusedPeer(t *testing.T) {
	s := testStore(t, Options{LeaseTimeout: 60 * time.Millisecond})
	peer1, gen1, err := s.AcquirePeer(deadPID(t))
	if err != nil {
		t.Fatal(err)
	}
	raw, h, ok := s.Acquire(4096)
	if !ok {
		t.Fatal("Acquire declined")
	}
	d, err := s.Share(h, peer1, gen1, 16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(s.Prefix(), peer1, gen1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One beat, then silence: the interval is far longer than the lease,
	// so the heartbeat goes stale while the resolution is outstanding —
	// the "subscriber stalled past its lease" scenario (and the pid is
	// dead, so the reaper acts on it).
	if err := m.StartHeartbeat(time.Hour); err != nil {
		t.Fatal(err)
	}
	_, held, err := m.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	waitSlot(t, s, h, 1, 0, "stalled dead peer not reaped")
	// The freed id goes to a new subscriber under a new generation.
	peer2, gen2, err := s.AcquirePeer(uint32(os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	if peer2 != peer1 {
		t.Fatalf("expected peer id reuse, got %d then %d", peer1, peer2)
	}
	if gen2 == gen1 {
		t.Fatal("lease generation not bumped on reuse")
	}
	if _, err := s.Share(h, peer2, gen2, 16); err != nil {
		t.Fatal(err)
	}
	// A Share against the reaped generation is refused.
	if _, err := s.Share(h, peer1, gen1, 16); err == nil {
		t.Fatal("Share accepted a reaped lease generation")
	}
	// The stale mapper can no longer resolve: its lease is gone.
	if _, _, err := m.Resolve(d); !errors.Is(err, core.ErrStaleGeneration) {
		t.Fatalf("stale-lease resolve: err=%v, want ErrStaleGeneration", err)
	}
	// Its late release of the pre-reap resolution must not steal the new
	// lease's reference.
	m.ReleaseExternal(held)
	if refs, owner := s.SlotRefs(h); refs != 2 || owner != 1<<uint(peer2) {
		t.Fatalf("stale release corrupted the re-leased peer: refs=%d owner=%#x", refs, owner)
	}
	m.Close()
	dropShare(s, h, peer2)
	s.Release(h, raw)
	if !s.Idle() {
		t.Fatal("store not idle after all releases")
	}
}

// TestManagerIntegration plugs a Store into a core.Manager: New lands
// the message in a shared slot, SharedHandleOf exposes the handle, and
// a mapper-resolved external buffer adopts into an identical message —
// the zero-copy path the ros layer is built on.
func TestManagerIntegration(t *testing.T) {
	type msg struct {
		A uint32
		B uint64
	}
	s := testStore(t, Options{})
	mgr := core.NewManager()
	mgr.SetBackingStore(s)

	p, err := core.NewIn[msg](mgr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p.A, p.B = 0xdeadbeef, 1<<40
	h, used, ok := core.SharedHandleOf(p, s)
	if !ok {
		t.Fatal("store-backed message has no shared handle")
	}
	if _, _, ok := core.SharedHandleOf(p, nil); ok {
		t.Fatal("handle resolved against the wrong store")
	}
	peer, gen, err := s.AcquirePeer(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Share(h, peer, gen, used)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewMapper(s.Prefix(), peer, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, held, err := m.Resolve(d)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := mgr.NewExternalBuffer(mem, m, held)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.Adopt[msg](buf, used)
	if err != nil {
		t.Fatal(err)
	}
	if q.A != p.A || q.B != p.B {
		t.Fatalf("adopted message differs: %+v vs %+v", *q, *p)
	}
	if _, err := core.Release(q); err != nil { // frees mapper reference
		t.Fatal(err)
	}
	if _, err := core.Release(p); err != nil { // frees publisher baseline via BackingStore.Release
		t.Fatal(err)
	}
	if !s.Idle() {
		t.Fatal("store not idle after both releases")
	}
	m.Close()
	if m.Outstanding() != 0 {
		t.Fatal("outstanding resolutions after release")
	}
}
