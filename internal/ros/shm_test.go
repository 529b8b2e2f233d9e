package ros_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
)

// procBuffer collects a re-exec'd child's output; unlike bytes.Buffer
// it is safe to poll while the child is still writing.
type procBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *procBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *procBuffer) Contains(s string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Contains(b.buf.Bytes(), []byte(s))
}

func (b *procBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newShmStore builds a private store on a throwaway directory and makes
// sure it outlives the nodes of the test (node cleanups registered
// later run first).
func newShmStore(t *testing.T, reg *obs.Registry) *shm.Store {
	t.Helper()
	requireShm(t)
	s, err := shm.NewStore(shm.Options{Dir: t.TempDir(), Stats: reg.Shm()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() {
		waitIdle(t, s)
		s.Close()
	})
	return s
}

// waitIdle polls until every slot reference the store handed out has
// been returned (publisher releases plus subscriber-side descriptor
// releases, which travel back through shared memory asynchronously).
func waitIdle(t *testing.T, s *shm.Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Idle() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("shm store never returned to idle (leaked slot references)")
}

func newNodeOpts(t *testing.T, name string, opts ...ros.Option) *ros.Node {
	t.Helper()
	n, err := ros.NewNode(name, opts...)
	if err != nil {
		t.Fatalf("NewNode(%s): %v", name, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestShmDescriptorPath exercises the full shm pipeline between two
// nodes: store-backed allocation, transport negotiation, descriptor
// framing, mapper resolution, and adoption — asserting that the payload
// actually traveled as a descriptor, not inline bytes.
func TestShmDescriptorPath(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m), ros.WithMetrics(reg))

	type result struct {
		height uint32
		data   []byte
		state  core.State
	}
	got := make(chan result, 8)
	_, err := ros.Subscribe(subNode, "camera/image", func(img *testImageSF) {
		st, _ := core.StateOf(img)
		got <- result{img.Height, append([]byte(nil), img.Data.Slice()...), st}
	}, ros.WithTransport(ros.TransportShm))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub, err := ros.Advertise[testImageSF](pubNode, "camera/image")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	eventually(t, "subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	img, err := core.NewIn[testImageSF](mgr, 1<<16)
	if err != nil {
		t.Fatalf("core.NewIn: %v", err)
	}
	img.Height = 7
	img.Data.MustResize(4096)
	for i := range img.Data.Slice() {
		img.Data.Slice()[i] = byte(i)
	}
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	select {
	case r := <-got:
		if r.height != 7 || len(r.data) != 4096 || r.data[100] != 100 {
			t.Errorf("received height=%d len=%d", r.height, len(r.data))
		}
		if r.state != core.StatePublished {
			t.Errorf("subscriber-side state = %v, want Published", r.state)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message received over shm")
	}
	if _, err := core.Release(img); err != nil {
		t.Fatalf("Release: %v", err)
	}

	if store.Shares() == 0 {
		t.Error("store recorded zero shares: message traveled inline, not as a descriptor")
	}
	snap := reg.Snapshot()
	if snap.Shm.DescriptorSends == 0 {
		t.Error("DescriptorSends == 0, want > 0")
	}
	if snap.Shm.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0", snap.Shm.Fallbacks)
	}
}

// TestShmHeapArenaPromotion is the publish-time promotion acceptance:
// a message allocated from a plain HEAP manager reaching a
// shm-negotiated connection must migrate copy-once into a shared slot
// and travel as a descriptor — a promotion, not a fallback. Republishing
// the unchanged message must reuse the cached promotion (still one
// copy total).
func TestShmHeapArenaPromotion(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)

	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m), ros.WithMetrics(reg))

	got := make(chan []byte, 8)
	_, err := ros.Subscribe(subNode, "lidar/cloud", func(img *testImageSF) {
		got <- append([]byte(nil), img.Data.Slice()...)
	}, ros.WithTransport(ros.TransportShm))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub, err := ros.Advertise[testImageSF](pubNode, "lidar/cloud")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	eventually(t, "subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	// Heap arena: no store on this manager, as in code that allocated the
	// message before the node (or a library unaware of shm) published it.
	img, err := core.NewWithCapacity[testImageSF](1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	img.Data.MustResize(2048)
	for i := range img.Data.Slice() {
		img.Data.Slice()[i] = byte(i * 3)
	}
	// Sequential republishes: the subscriber adopts the shared slot at
	// its mapped address, so the previous delivery must be consumed
	// before the same slot is shared again — the normal cadence of a
	// republished message. Each round must hit the cached promotion.
	const republishes = 3
	for i := 0; i < republishes; i++ {
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		select {
		case d := <-got:
			if len(d) != 2048 || d[100] != 300%256 {
				t.Errorf("delivery %d: len=%d d[100]=%#x", i, len(d), d[100])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
		// Consumed means released, not merely handed to the callback: the
		// subscription counts a message after it gave the slot back. A
		// share minted while the previous reference is still held is
		// cancelled by that reference's release and reads as stale.
		eventually(t, "the delivery's slot reference to come back", func() bool {
			return reg.Snapshot().Subscribers["lidar/cloud"].Messages == uint64(i+1)
		})
	}
	if _, err := core.Release(img); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Shm.DescriptorSends < republishes {
		t.Errorf("DescriptorSends = %d, want >= %d (heap message must still ride the descriptor path)",
			snap.Shm.DescriptorSends, republishes)
	}
	if snap.Shm.Promotions != 1 {
		t.Errorf("Promotions = %d, want exactly 1 (copy once, then the cached slot)", snap.Shm.Promotions)
	}
	if snap.Shm.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0 — a heap arena is a promotion, not a fallback", snap.Shm.Fallbacks)
	}
	if snap.Shm.FallbackReasons.HeapArena != 0 {
		t.Errorf("heap_arena fallbacks = %d, want 0", snap.Shm.FallbackReasons.HeapArena)
	}
}

// TestShmPromotionOncePerMessage: heap-arena messages fanned out to two
// shm subscribers. Each link's write loop promotes the message it takes,
// so the two loops race on the same record; the first to get there
// copies it into a shared slot and the other ships from that copy — one
// promotion per message, however the loops interleave (run under -race).
func TestShmPromotionOncePerMessage(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)

	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	got := make(chan uint32, 32)
	for i := 0; i < 2; i++ {
		subNode := newNodeOpts(t, fmt.Sprintf("sub%d", i), ros.WithMaster(m), ros.WithMetrics(reg))
		if _, err := ros.Subscribe(subNode, "promo/img", func(img *testImageSF) {
			got <- img.Height
		}, ros.WithTransport(ros.TransportShm)); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	pub, err := ros.Advertise[testImageSF](pubNode, "promo/img")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	eventually(t, "two subscriber connections", func() bool { return pub.NumSubscribers() == 2 })

	const msgs = 8
	for i := 0; i < msgs; i++ {
		img, err := core.NewWithCapacity[testImageSF](1 << 14)
		if err != nil {
			t.Fatal(err)
		}
		img.Height = uint32(i)
		img.Data.MustResize(1024)
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		if _, err := core.Release(img); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*msgs; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d deliveries arrived", i, 2*msgs)
		}
	}

	snap := reg.Snapshot().Shm
	if snap.Promotions != msgs {
		t.Errorf("Promotions = %d, want %d (one per message, not one per link)", snap.Promotions, msgs)
	}
	if snap.DescriptorSends != 2*msgs {
		t.Errorf("DescriptorSends = %d, want %d", snap.DescriptorSends, 2*msgs)
	}
	if snap.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0", snap.Fallbacks)
	}
}

// TestShmLatchedToLateJoiner: the latched message a late shm subscriber
// is handed goes through its link's write loop like any other, so it
// travels as a descriptor, not as an inline copy.
func TestShmLatchedToLateJoiner(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m), ros.WithMetrics(reg))
	pub, err := ros.Advertise[testImageSF](pubNode, "latched/map", ros.WithLatch())
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	img, err := core.NewIn[testImageSF](mgr, 8192)
	if err != nil {
		t.Fatal(err)
	}
	img.Height = 42
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	core.Release(img) //nolint:errcheck // the latch holds its own reference

	got := make(chan uint32, 1)
	if _, err := ros.Subscribe(subNode, "latched/map", func(img *testImageSF) { got <- img.Height },
		ros.WithTransport(ros.TransportShm)); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	select {
	case h := <-got:
		if h != 42 {
			t.Fatalf("latched delivery has height %d, want 42", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the late joiner never got the latched message")
	}
	if snap := reg.Snapshot().Shm; snap.DescriptorSends != 1 || snap.Fallbacks != 0 {
		t.Errorf("descriptor_sends = %d, fallbacks = %d; want the latched message sent as 1 descriptor",
			snap.DescriptorSends, snap.Fallbacks)
	}
}

// TestShmPeerTableFull drives a publisher with shm.MaxPeers + 1
// same-host shm subscribers. The last one finds the peer table full: it
// gets TCP, is counted under peer_table_full, and keeps receiving. Once
// one of the first MaxPeers leaves and its lease is reaped, a fresh
// subscriber gets shm again.
func TestShmPeerTableFull(t *testing.T) {
	requireShm(t)
	reg := obs.NewRegistry()
	store, err := shm.NewStore(shm.Options{Dir: t.TempDir(), Stats: reg.Shm(), LeaseTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() {
		waitIdle(t, store)
		store.Close()
	})
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	pub, err := ros.Advertise[testImageSF](pubNode, "full/img")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	var subs []*ros.Subscriber
	var got []chan uint32
	live := map[int]bool{}
	subscribe := func() {
		t.Helper()
		i := len(subs)
		ch := make(chan uint32, 4)
		n := newNodeOpts(t, fmt.Sprintf("sub%d", i), ros.WithMaster(m))
		s, err := ros.Subscribe(n, "full/img", func(img *testImageSF) { ch <- img.Height },
			ros.WithTransport(ros.TransportShm))
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		subs, got, live[i] = append(subs, s), append(got, ch), true
		eventually(t, fmt.Sprintf("subscriber %d to connect", i), func() bool { return pub.NumSubscribers() == len(live) })
	}
	// publish sends one message and waits for every live subscriber to
	// receive it; it returns how many links it went to as a descriptor.
	publish := func(h uint32) uint64 {
		t.Helper()
		before := reg.Snapshot().Shm.DescriptorSends
		img, err := core.NewIn[testImageSF](mgr, 4096)
		if err != nil {
			t.Fatal(err)
		}
		img.Height = h
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		core.Release(img) //nolint:errcheck
		for i := range live {
			select {
			case v := <-got[i]:
				if v != h {
					t.Fatalf("subscriber %d got message %d, want %d", i, v, h)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("subscriber %d never received message %d", i, h)
			}
		}
		return reg.Snapshot().Shm.DescriptorSends - before
	}

	for i := 0; i < shm.MaxPeers; i++ {
		subscribe()
	}
	if n := reg.Snapshot().Shm.FallbackReasons.PeerTableFull; n != 0 {
		t.Fatalf("peer_table_full = %d with %d subscribers, want 0", n, shm.MaxPeers)
	}
	subscribe() // one past the table
	if n := reg.Snapshot().Shm.FallbackReasons.PeerTableFull; n != 1 {
		t.Fatalf("peer_table_full = %d, want 1 for subscriber %d", n, shm.MaxPeers)
	}
	for h := uint32(1); h <= 3; h++ {
		if d := publish(h); d != shm.MaxPeers {
			t.Fatalf("message %d went to %d links as a descriptor, want %d", h, d, shm.MaxPeers)
		}
	}

	reaped := reg.Snapshot().Shm.LeasesReaped
	subs[0].Close()
	delete(live, 0)
	eventually(t, "the departed subscriber's lease to be reaped", func() bool {
		return pub.NumSubscribers() == len(live) && reg.Snapshot().Shm.LeasesReaped > reaped
	})
	subscribe() // takes the freed lease
	if n := reg.Snapshot().Shm.FallbackReasons.PeerTableFull; n != 1 {
		t.Fatalf("peer_table_full = %d after a lease was freed, want still 1", n)
	}
	if d := publish(4); d != shm.MaxPeers {
		t.Fatalf("after the rejoin a message went to %d links as a descriptor, want %d", d, shm.MaxPeers)
	}
}

// TestShmOfferFallsBackWithoutStore checks new-subscriber/old-publisher
// convergence: a subscriber offering shm to a node with no store must
// get plain TCP delivery with no API-visible difference.
func TestShmOfferFallsBackWithoutStore(t *testing.T) {
	requireShm(t)
	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m))
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m))

	got := make(chan uint32, 8)
	_, err := ros.Subscribe(subNode, "t", func(img *testImageSF) { got <- img.Height },
		ros.WithTransport(ros.TransportShm))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub, err := ros.Advertise[testImageSF](pubNode, "t")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	eventually(t, "subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	img, _ := core.NewWithCapacity[testImageSF](4096)
	img.Height = 42
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	select {
	case h := <-got:
		if h != 42 {
			t.Errorf("received height %d, want 42", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message received after TCP fallback")
	}
	core.Release(img)
}

// TestShmNotOfferedWithCustomDialer: a netsim-style dialer models a
// remote link, so the subscriber must not offer shm even though both
// ends share this process; the store sees zero shares.
func TestShmNotOfferedWithCustomDialer(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m),
		ros.WithDialer(func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }))

	got := make(chan uint32, 8)
	_, err := ros.Subscribe(subNode, "t", func(img *testImageSF) { got <- img.Height },
		ros.WithTransport(ros.TransportAuto))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub, err := ros.Advertise[testImageSF](pubNode, "t")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	eventually(t, "subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	img, err := core.NewIn[testImageSF](mgr, 4096)
	if err != nil {
		t.Fatalf("core.NewIn: %v", err)
	}
	img.Height = 9
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	select {
	case h := <-got:
		if h != 9 {
			t.Errorf("received height %d, want 9", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message received")
	}
	core.Release(img)
	if n := store.Shares(); n != 0 {
		t.Errorf("store.Shares() = %d, want 0 (custom dialer must suppress the shm offer)", n)
	}
}

// TestTransportUnavailableCounter covers the silent-empty-subscription
// satellite: publishers exist for the topic but none is reachable over
// the subscription's transport mode, so the subscriber increments
// transport_unavailable (and logs once) instead of failing silently.
func TestTransportUnavailableCounter(t *testing.T) {
	reg := obs.NewRegistry()
	m := ros.NewLocalMaster()
	// The publisher has no TCP listener, so a TCP-only subscriber in
	// another node can see it in the graph but never reach it.
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithoutListener())
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m), ros.WithMetrics(reg))

	if _, err := ros.Advertise[testImageSF](pubNode, "t"); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	_, err := ros.Subscribe(subNode, "t", func(img *testImageSF) {},
		ros.WithTransport(ros.TransportTCP))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	eventually(t, "transport_unavailable counter", func() bool {
		return reg.Subscriber("t").TransportUnavailable.Load() >= 1
	})
}

// Environment protocol for the two-process acceptance test below.
const (
	shmChildEnv   = "ROSSF_SHM_TEST_CHILD"
	shmMasterEnv  = "ROSSF_SHM_TEST_MASTER"
	shmTopicEnv   = "ROSSF_SHM_TEST_TOPIC"
	shmWantEnv    = "ROSSF_SHM_TEST_WANT"
	shmPayloadEnv = "ROSSF_SHM_TEST_SIZE"
)

// TestShmTwoProcessZeroCopy is the acceptance test for the transport:
// a real child process subscribes over shm, the parent publishes 1 MiB
// messages, and the instruments prove every delivered payload traveled
// as a 24-byte descriptor (zero per-message payload copies) — the
// child's mapper resolved segments, the parent recorded descriptor
// sends and no per-message fallbacks.
func TestShmTwoProcessZeroCopy(t *testing.T) {
	requireShm(t)
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	const (
		topic   = "shm/acceptance"
		want    = 8
		payload = 1 << 20
	)

	srv, err := ros.NewMasterServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewMasterServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	rm, err := ros.DialMaster(srv.Addr())
	if err != nil {
		t.Fatalf("DialMaster: %v", err)
	}
	t.Cleanup(func() { rm.Close() })
	node := newNodeOpts(t, "shmparent", ros.WithMaster(rm), ros.WithShmStore(store), ros.WithMetrics(reg))
	pub, err := ros.Advertise[testImageSF](node, topic)
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestShmChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		shmChildEnv+"=1",
		shmMasterEnv+"="+srv.Addr(),
		shmTopicEnv+"="+topic,
		shmWantEnv+"="+strconv.Itoa(want),
		shmPayloadEnv+"="+strconv.Itoa(payload),
	)
	out := &procBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatalf("stdin pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
	})

	eventually(t, "child subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	// Publish until the child confirms receipt of `want` messages; the
	// generous cap only bounds a broken run.
	done := false
	for i := 0; i < 500 && !done && !out.Contains("CHILD_OK"); i++ {
		img, err := core.NewIn[testImageSF](mgr, payload+8192)
		if err != nil {
			t.Fatalf("core.NewIn: %v", err)
		}
		img.Height = uint32(i)
		img.Data.MustResize(payload)
		d := img.Data.Slice()
		d[0], d[payload/2], d[payload-1] = byte(i), byte(i), byte(i)
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if _, err := core.Release(img); err != nil {
			t.Fatalf("Release: %v", err)
		}
		select {
		case <-exited:
			done = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The child holds its subscription — and its lease — until stdin
	// closes, so the last Publish above strictly precedes the lease
	// drain: no publish can race the teardown into a spurious
	// lease-lost fallback.
	stdin.Close()
	if !done {
		select {
		case <-exited:
		case <-time.After(25 * time.Second):
			t.Fatalf("child never exited; output so far:\n%s", out.String())
		}
	}
	if waitErr != nil {
		t.Fatalf("child failed: %v\n%s", waitErr, out.String())
	}
	if !out.Contains("CHILD_OK") {
		t.Fatalf("child did not confirm zero-copy receipt:\n%s", out.String())
	}

	snap := reg.Snapshot()
	if snap.Shm.DescriptorSends < want {
		t.Errorf("DescriptorSends = %d, want >= %d", snap.Shm.DescriptorSends, want)
	}
	if snap.Shm.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0 (every message must travel as a descriptor)", snap.Shm.Fallbacks)
	}
}

// TestShmTwoProcessLargeMessage is the large-object acceptance test: a
// real child process subscribes over shm and the parent publishes
// point-cloud-sized 128 MiB messages end-to-end. Every one must travel
// as a descriptor — Fallbacks stays exactly zero — which is the
// tentpole fix: before the large-object tier, anything above the 64 MiB
// slot class silently dropped to inline TCP. The payloads are written
// sparsely (three stamped bytes per message), so the test is cheap on
// memory despite the sizes.
func TestShmTwoProcessLargeMessage(t *testing.T) {
	requireShm(t)
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	const (
		topic   = "shm/acceptance_large"
		want    = 3
		payload = 128 << 20
	)
	dir := t.TempDir()
	if free := shm.DirBytesFree(dir); free > 0 && free < 4*uint64(payload) {
		msgtest.NotVerified(t, "only %d bytes free under %s, need %d", free, dir, 4*payload)
	}

	srv, err := ros.NewMasterServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewMasterServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	store, err := shm.NewStore(shm.Options{Dir: dir, Stats: reg.Shm()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() {
		waitIdle(t, store)
		store.Close()
	})
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	rm, err := ros.DialMaster(srv.Addr())
	if err != nil {
		t.Fatalf("DialMaster: %v", err)
	}
	t.Cleanup(func() { rm.Close() })
	node := newNodeOpts(t, "shmlargeparent", ros.WithMaster(rm), ros.WithShmStore(store), ros.WithMetrics(reg))
	pub, err := ros.Advertise[testImageSF](node, topic)
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestShmChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		shmChildEnv+"=1",
		shmMasterEnv+"="+srv.Addr(),
		shmTopicEnv+"="+topic,
		shmWantEnv+"="+strconv.Itoa(want),
		shmPayloadEnv+"="+strconv.Itoa(payload),
	)
	out := &procBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatalf("stdin pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
	})

	eventually(t, "child subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	done := false
	for i := 0; i < 300 && !done && !out.Contains("CHILD_OK"); i++ {
		img, err := core.NewIn[testImageSF](mgr, payload+8192)
		if err != nil {
			t.Fatalf("core.NewIn(128 MiB): %v", err)
		}
		img.Height = uint32(i)
		img.Data.MustResize(payload)
		d := img.Data.Slice()
		d[0], d[payload/2], d[payload-1] = byte(i), byte(i), byte(i)
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if _, err := core.Release(img); err != nil {
			t.Fatalf("Release: %v", err)
		}
		select {
		case <-exited:
			done = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	// The child holds its lease until stdin closes (see the zero-copy
	// variant above), keeping the teardown ordering deterministic.
	stdin.Close()
	if !done {
		select {
		case <-exited:
		case <-time.After(25 * time.Second):
			t.Fatalf("child never exited; output so far:\n%s", out.String())
		}
	}
	if waitErr != nil {
		t.Fatalf("child failed: %v\n%s", waitErr, out.String())
	}
	if !out.Contains("CHILD_OK") {
		t.Fatalf("child did not confirm zero-copy receipt:\n%s", out.String())
	}

	snap := reg.Snapshot()
	if snap.Shm.DescriptorSends < want {
		t.Errorf("DescriptorSends = %d, want >= %d", snap.Shm.DescriptorSends, want)
	}
	if snap.Shm.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0 — 128 MiB messages must ride the large-object tier, not TCP (reasons: %+v)",
			snap.Shm.Fallbacks, snap.Shm.FallbackReasons)
	}
	if snap.Shm.FallbackReasons.Oversized != 0 {
		t.Errorf("oversized fallbacks = %d for messages under MaxMessageBytes", snap.Shm.FallbackReasons.Oversized)
	}
}

// TestShmChildHelper is the subscriber half of TestShmTwoProcessZeroCopy
// (1 MiB payloads) and TestShmTwoProcessLargeMessage (128 MiB), run in a
// child process. It subscribes over shm, verifies each payload's stamps
// in place, and prints CHILD_OK once it has received enough — including
// proof (mapped segments) that delivery used descriptors.
func TestShmChildHelper(t *testing.T) {
	if os.Getenv(shmChildEnv) != "1" {
		t.Skip("helper for TestShmTwoProcessZeroCopy")
	}
	want, _ := strconv.Atoi(os.Getenv(shmWantEnv))
	payload, _ := strconv.Atoi(os.Getenv(shmPayloadEnv))
	topic := os.Getenv(shmTopicEnv)

	reg := obs.NewRegistry()
	rm, err := ros.DialMaster(os.Getenv(shmMasterEnv))
	if err != nil {
		t.Fatalf("DialMaster: %v", err)
	}
	defer rm.Close()
	node, err := ros.NewNode("shmchild", ros.WithMaster(rm), ros.WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	type report struct {
		seq uint32
		ok  bool
	}
	got := make(chan report, 64)
	_, err = ros.Subscribe(node, topic, func(img *testImageSF) {
		d := img.Data.Slice()
		b := byte(img.Height)
		ok := len(d) == payload && d[0] == b && d[payload/2] == b && d[payload-1] == b
		got <- report{img.Height, ok}
	}, ros.WithTransport(ros.TransportShm))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	deadline := time.After(20 * time.Second)
	received := 0
	for received < want {
		select {
		case r := <-got:
			if !r.ok {
				t.Fatalf("message %d failed in-place verification", r.seq)
			}
			received++
		case <-deadline:
			t.Fatalf("received only %d/%d messages before timeout", received, want)
		}
	}
	snap := reg.Snapshot()
	if snap.Shm.SegmentsMapped == 0 {
		t.Fatalf("no segments mapped: delivery did not use shared memory")
	}
	fmt.Printf("CHILD_OK n=%d mapped=%d\n", received, snap.Shm.SegmentsMapped)
	// Hold the subscription — and this peer's lease — until the parent
	// closes stdin: it stops publishing on CHILD_OK first, so the lease
	// drain can never race a Publish into a spurious lease-lost
	// fallback.
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck // EOF is the signal
}

// TestOversizedFrameRefusedPerLink: a message above the plain TCP frame
// cap (64 MiB), published to one TCP and one shm subscriber, is refused
// on the TCP link by the egress encoder — none of its bytes is written,
// so that subscriber sees no stream damage and its link stays up — and
// counted once in drops and drops_oversized, while the shm link, whose
// cap admits it, delivers it as a descriptor. The 4 KiB message
// published next reaches both.
func TestOversizedFrameRefusedPerLink(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	const big = ros.MaxTCPFrameBytes + 1
	if dir := filepath.Dir(store.Prefix()); shm.DirBytesFree(dir) > 0 && shm.DirBytesFree(dir) < 2*big {
		msgtest.NotVerified(t, "only %d bytes free under %s, need %d", shm.DirBytesFree(dir), dir, 2*big)
	}
	mgr := core.NewManager()
	mgr.SetBackingStore(store)
	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "sub", ros.WithMaster(m), ros.WithMetrics(reg))

	subscribe := func(mode ros.TransportMode) (*ros.Subscriber, chan int) {
		got := make(chan int, 4)
		s, err := ros.Subscribe(subNode, "big/image", func(img *testImageSF) { got <- img.Data.Len() },
			ros.WithTransport(mode))
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		return s, got
	}
	tcpSub, overTCP := subscribe(ros.TransportTCP)
	_, overShm := subscribe(ros.TransportShm)
	pub, err := ros.Advertise[testImageSF](pubNode, "big/image")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	eventually(t, "both subscriber connections", func() bool { return pub.NumSubscribers() == 2 })

	// publish sends a message of used bytes in all and returns its data
	// length.
	publish := func(used int) int {
		img, err := core.NewIn[testImageSF](mgr, used+8192)
		if err != nil {
			t.Fatalf("core.NewIn: %v", err)
		}
		skel, _ := core.UsedSize(img)
		img.Data.MustResize(used - skel)
		if n, _ := core.UsedSize(img); n != used {
			t.Fatalf("message uses %d bytes, want %d", n, used)
		}
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		core.Release(img)
		return used - skel
	}
	recv := func(who string, ch chan int, want int) {
		t.Helper()
		select {
		case n := <-ch:
			if n != want {
				t.Fatalf("%s subscriber got %d data bytes, want %d", who, n, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s subscriber got nothing", who)
		}
	}
	large, small := publish(big), publish(4096)
	recv("shm", overShm, large)
	recv("shm", overShm, small)
	recv("tcp", overTCP, small) // the first and only frame on its link

	if c, r := tcpSub.CorruptFrames(), tcpSub.ResyncedBytes(); c != 0 || r != 0 {
		t.Errorf("tcp subscriber saw %d corrupt frames and resynced %d bytes, want 0 and 0", c, r)
	}
	snap := reg.Snapshot()
	if p := snap.Publishers["big/image"]; p.Drops != 1 || p.DropsOversized != 1 {
		t.Errorf("drops = %d, drops_oversized = %d, want 1 and 1", p.Drops, p.DropsOversized)
	}
	if r := snap.Subscribers["big/image"].Reconnects; r != 0 {
		t.Errorf("%d reconnects: the refusal took a link down", r)
	}
}
