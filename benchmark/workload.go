package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"rossf/internal/core"
	"rossf/internal/msg"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
	"rossf/msgs/sensor_msgs"
)

const topic = "benchmark/image"

// image is a payload shape. 4k is a 64x64 mono8 tile (4 096 B), 1m the
// paper's 800x600 rgb8 frame (1 440 000 B).
type image struct {
	w, h, bpp int
	encoding  string
}

func (i image) bytes() int { return i.w * i.h * i.bpp }

var (
	img4k = image{w: 64, h: 64, bpp: 1, encoding: "mono8"}
	img1m = image{w: 800, h: 600, bpp: 3, encoding: "rgb8"}
)

// workload names one load shape. All of them are one closed-loop
// publisher and one subscriber callback on loopback; they differ in
// which module does most of the work.
type workload struct {
	name      string
	why       string // one line, repeated in BENCHMARK.json
	img       image
	transport ros.TransportMode
	regular   bool // sensor_msgs.Image through SerializeROS, not ImageSF
	masked    bool // subscriber asks for header.seq and header.stamp only
	window    int  // messages in flight; 1 is lockstep
}

var workloads = []workload{
	{name: "inproc_4k_lockstep", img: img4k, transport: ros.TransportInproc, window: 1,
		why: "no transport runs, so core construct/publish/release and callback dispatch are nearly all the work"},
	{name: "tcp_4k_lockstep", img: img4k, transport: ros.TransportTCP, window: 1,
		why: "per-message cost dominates: egress enqueue, one writev, one ingress read, dispatch; batching and shm are bypassed"},
	{name: "shm_4k_lockstep", img: img4k, transport: ros.TransportShm, window: 1,
		why: "descriptor over TCP plus lease bookkeeping per message, the small-message shm regression on file"},
	{name: "tcp_4k_stream", img: img4k, transport: ros.TransportTCP, window: 64,
		why: "64 in flight: the same egress and ingress layers run batched (multi-frame writev, multi-frame read wake-ups)"},
	{name: "tcp_1m_regular", img: img1m, transport: ros.TransportTCP, regular: true, window: 1,
		why: "the ROS baseline: SerializeROS and DeserializeROS of a 1.44 MB image do most of the work"},
	{name: "tcp_1m_sfm", img: img1m, transport: ros.TransportTCP, window: 1,
		why: "bytes dominate and ser does nothing: CRC-32C, large writev, ingress growth; the gap to tcp_1m_regular is Fig. 13"},
	{name: "shm_1m_lockstep", img: img1m, transport: ros.TransportShm, window: 1,
		why: "zero-copy size independence: transit should equal shm_4k_lockstep's; guards the large shm path"},
	{name: "tcp_1m_masked", img: img1m, transport: ros.TransportTCP, masked: true, window: 1,
		why: "subscriber reads two header fields, so fieldwire sparse encode/decode runs and the payload never crosses"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topology is one live graph for a workload: master, nodes, publisher,
// subscriber, and the counters they feed.
type topology struct {
	kind      msgKind
	reg       *obs.Registry
	pubMgr    *core.Manager // the publisher's arenas; store-backed on shm
	subMgr    *core.Manager // the subscriber's arenas
	store     *shm.Store    // nil unless the workload is shm
	negotiate time.Duration // Subscribe -> NumSubscribers() == 1
	closers   []func()
}

func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// setup brings the workload's graph up: a MasterServer on loopback and
// one DialMaster client per node. The inproc workload is the exception:
// an in-process attachment needs the publisher endpoint pointer that
// only ros.LocalMaster carries, so its one node uses a LocalMaster.
func setup(wl workload, h *harness, shmDir string) (_ *topology, err error) {
	t := &topology{reg: obs.NewRegistry(), pubMgr: core.NewManager(), subMgr: core.NewManager()}
	defer func() {
		if err != nil {
			t.close()
		}
	}()

	newNode := func(name string, opts ...ros.Option) (*ros.Node, error) {
		n, err := ros.NewNode(name, append(opts, ros.WithMetrics(t.reg))...)
		if err == nil {
			t.closers = append(t.closers, func() { n.Close() })
		}
		return n, err
	}
	var pubNode, subNode *ros.Node
	if wl.transport == ros.TransportInproc {
		if pubNode, err = newNode("bench", ros.WithMaster(ros.NewLocalMaster())); err != nil {
			return nil, err
		}
		subNode = pubNode
	} else {
		srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(t.reg))
		if err != nil {
			return nil, err
		}
		t.closers = append(t.closers, func() { srv.Close() })
		dial := func() (ros.Option, error) {
			m, err := ros.DialMaster(srv.Addr(), ros.WithMasterMetrics(t.reg))
			if err != nil {
				return nil, err
			}
			t.closers = append(t.closers, func() { m.Close() })
			return ros.WithMaster(m), nil
		}
		pubOpts := make([]ros.Option, 1, 2)
		if pubOpts[0], err = dial(); err != nil {
			return nil, err
		}
		if wl.transport == ros.TransportShm {
			if t.store, err = shm.NewStore(shm.Options{Dir: shmDir, Stats: t.reg.Shm()}); err != nil {
				return nil, fmt.Errorf("shm store in %s: %w", shmDir, err)
			}
			store := t.store
			t.closers = append(t.closers, func() { closeStore(store) })
			t.pubMgr.SetBackingStore(store)
			pubOpts = append(pubOpts, ros.WithShmStore(store))
		}
		if pubNode, err = newNode("bench_pub", pubOpts...); err != nil {
			return nil, err
		}
		subMaster, err := dial()
		if err != nil {
			return nil, err
		}
		if subNode, err = newNode("bench_sub", subMaster); err != nil {
			return nil, err
		}
	}

	subOpts := []ros.SubOption{ros.WithTransport(wl.transport), ros.WithManager(t.subMgr)}
	if wl.masked {
		subOpts = append(subOpts, ros.WithFields("header.seq", "header.stamp"))
	}
	img := wl.img
	if wl.regular {
		pub, err := attach(t, pubNode, subNode, wl.window, subOpts, func(m *sensor_msgs.Image) {
			h.deliver(delivery{seq: m.Header.Seq, stamp: m.Header.Stamp, data: m.Data,
				headerOK: m.Width == uint32(img.w) && m.Height == uint32(img.h) && m.Encoding == img.encoding})
		})
		if err != nil {
			return nil, err
		}
		t.kind = &regularKind{pub: pub, img: img, slab: h.slab}
		return t, nil
	}
	pub, err := attach(t, pubNode, subNode, wl.window, subOpts, func(m *sensor_msgs.ImageSF) {
		d := delivery{seq: m.Header.Seq, stamp: m.Header.Stamp, headerOK: true}
		if !wl.masked {
			d.data = m.Data.Slice()
			d.headerOK = m.Width == uint32(img.w) && m.Height == uint32(img.h) &&
				string(m.Encoding.View()) == img.encoding
		}
		h.deliver(d)
	})
	if err != nil {
		return nil, err
	}
	t.kind = &sfmKind{pub: pub, mgr: t.pubMgr, img: img, slab: h.slab}
	return t, nil
}

// closeStore waits until no message or lease pins a segment, closes the
// store, and waits for the teardown that unlinks its files from the
// segment directory, so a run leaves nothing behind there.
func closeStore(store *shm.Store) {
	for end := time.Now().Add(5 * time.Second); !store.Idle() && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	store.Close()
	select {
	case <-store.TeardownDone():
	case <-time.After(5 * time.Second):
		fmt.Fprintln(os.Stderr, "benchmark: shm store teardown still pending after 5s; segment files may remain in", store.Prefix())
	}
}

// attach advertises, subscribes, and waits for the negotiated
// connection, timing Subscribe -> NumSubscribers() == 1. It waits on the
// subscriber's connection-state callback and not in a sleeping poll: an
// idle Go scheduler rounds a short sleep up to a millisecond, which
// would make set-up read 0.4 ms or 1.5 ms by the toss of a coin.
func attach[T any](t *topology, pubNode, subNode *ros.Node, window int,
	subOpts []ros.SubOption, cb func(*T)) (*ros.Publisher[T], error) {
	// The publisher queue holds a whole window, so a full window never
	// drops: a drop would be a failure of the workload, not a result.
	pub, err := ros.Advertise[T](pubNode, topic, ros.WithQueueSize(2*max(window, 8)))
	if err != nil {
		return nil, err
	}
	connected := make(chan struct{}, 1)
	subOpts = append(subOpts, ros.WithConnState(func(_ string, st ros.ConnState) {
		if st == ros.ConnConnected {
			select {
			case connected <- struct{}{}:
			default:
			}
		}
	}))
	start := time.Now()
	sub, err := ros.Subscribe(subNode, topic, cb, subOpts...)
	if err != nil {
		return nil, err
	}
	t.closers = append(t.closers, sub.Close)
	if pub.NumSubscribers() < 1 { // an in-process subscriber is attached already
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		select {
		case <-connected:
		case <-timeout.C:
			return nil, fmt.Errorf("subscriber did not attach within 10s")
		}
		// The publisher adds the link right after it answers the
		// handshake the subscriber has just read.
		for pub.NumSubscribers() < 1 {
			if time.Since(start) > 10*time.Second {
				return nil, fmt.Errorf("publisher did not add the subscriber within 10s")
			}
			runtime.Gosched()
		}
	}
	t.negotiate = time.Since(start)
	return pub, nil
}

// sfmKind is the developer code of the serialization-free workloads,
// shaped like the paper's Fig. 13 publisher: allocate in the arena, set
// the header, copy the pixel slab into Data, publish, release.
type sfmKind struct {
	pub  *ros.Publisher[sensor_msgs.ImageSF]
	mgr  *core.Manager
	img  image
	slab []byte
	cur  *sensor_msgs.ImageSF
}

// arenaSlack is the arena room beyond the pixel bytes: the skeleton and
// the two short strings.
const arenaSlack = 8192

func (k *sfmKind) construct(seq uint32, stamp msg.Time) error {
	m, err := core.NewIn[sensor_msgs.ImageSF](k.mgr, len(k.slab)+arenaSlack)
	if err != nil {
		return err
	}
	k.cur = m
	m.Header.Seq, m.Header.Stamp = seq, stamp
	if err := m.Header.FrameID.Set("camera"); err != nil {
		return err
	}
	m.Height, m.Width, m.Step = uint32(k.img.h), uint32(k.img.w), uint32(k.img.w*k.img.bpp)
	if err := m.Encoding.Set(k.img.encoding); err != nil {
		return err
	}
	if err := m.Data.Resize(len(k.slab)); err != nil {
		return err
	}
	copy(m.Data.Slice(), k.slab)
	return nil
}

func (k *sfmKind) publish() error { return k.pub.Publish(k.cur) }

func (k *sfmKind) release() error {
	_, err := core.Release(k.cur)
	k.cur = nil
	return err
}

// regularKind is the same developer code on the serializing message
// type; Publish runs SerializeROS and the subscriber DeserializeROS.
type regularKind struct {
	pub  *ros.Publisher[sensor_msgs.Image]
	img  image
	slab []byte
	cur  *sensor_msgs.Image
}

func (k *regularKind) construct(seq uint32, stamp msg.Time) error {
	m := &sensor_msgs.Image{
		Height:   uint32(k.img.h),
		Width:    uint32(k.img.w),
		Encoding: k.img.encoding,
		Step:     uint32(k.img.w * k.img.bpp),
		Data:     make([]uint8, len(k.slab)),
	}
	m.Header.Seq, m.Header.Stamp, m.Header.FrameID = seq, stamp, "camera"
	copy(m.Data, k.slab)
	k.cur = m
	return nil
}

func (k *regularKind) publish() error { return k.pub.Publish(k.cur) }

// release drops the only reference; the garbage collector is the
// regular message's life-cycle manager.
func (k *regularKind) release() error {
	k.cur = nil
	return nil
}
