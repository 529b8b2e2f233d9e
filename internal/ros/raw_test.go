package ros_test

import (
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
)

// TestSubscribeRawROS1 receives undecoded ROS1 frames.
func TestSubscribeRawROS1(t *testing.T) {
	m := ros.NewLocalMaster()
	pubNode := newNode(t, "pub", m)
	subNode := newNode(t, "tool", m)

	pub, err := ros.Advertise[testImage](pubNode, "raw/topic")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan ros.RawMessage, 1)
	var img testImage
	_, err = ros.SubscribeRaw(subNode, "raw/topic",
		img.ROSMessageType(), img.ROSMD5Sum(), false,
		func(rm ros.RawMessage) {
			cp := rm
			cp.Frame = append([]byte(nil), rm.Frame...)
			got <- cp
		})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "raw attach", func() bool { return pub.NumSubscribers() == 1 })

	src := &testImage{Height: 3, Width: 4, Encoding: "x", Data: []byte{1, 2}}
	pub.Publish(src)
	select {
	case rm := <-got:
		if rm.Format != "ros1" {
			t.Errorf("format = %q", rm.Format)
		}
		if len(rm.Frame) != src.SerializedSizeROS() {
			t.Errorf("frame = %d bytes, want %d", len(rm.Frame), src.SerializedSizeROS())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no raw frame")
	}
}

// TestSubscribeRawSFM receives SFM frames with the endian annotation.
func TestSubscribeRawSFM(t *testing.T) {
	m := ros.NewLocalMaster()
	pubNode := newNode(t, "pub", m)
	subNode := newNode(t, "tool", m)

	pub, err := ros.Advertise[testImageSF](pubNode, "raw/sfm")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan ros.RawMessage, 1)
	var img testImageSF
	_, err = ros.SubscribeRaw(subNode, "raw/sfm",
		img.ROSMessageType(), img.ROSMD5Sum(), true,
		func(rm ros.RawMessage) {
			cp := rm
			cp.Frame = append([]byte(nil), rm.Frame...)
			got <- cp
		})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "raw sfm attach", func() bool { return pub.NumSubscribers() == 1 })

	src, _ := core.NewWithCapacity[testImageSF](4096)
	src.Height = 9
	src.Data.MustResize(100)
	wire, _ := core.Bytes(src)
	wantLen := len(wire)
	pub.Publish(src)
	core.Release(src)

	select {
	case rm := <-got:
		if rm.Format != "sfm" {
			t.Errorf("format = %q", rm.Format)
		}
		if len(rm.Frame) != wantLen {
			t.Errorf("frame = %d bytes, want %d", len(rm.Frame), wantLen)
		}
		if rm.LittleEndian != core.NativeLittleEndian() {
			t.Error("endian annotation wrong")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no raw SFM frame")
	}
}

// TestSubscribeRawSFMNextToShmPublisher is the regression test for raw
// SFM subscriptions (rostopic echo/bw/hz, rosrelay, rosbag record)
// offering a shared-memory transport they have no decoder for: next to
// a shm-capable publisher the link used to negotiate shm, burn a peer
// lease, close, count an old_build fallback and a reconnect, and wait
// out a backoff before redialing TCP. The offer now derives from the
// runtime's decoder set, so the first handshake is already plain.
func TestSubscribeRawSFMNextToShmPublisher(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "tool", ros.WithMaster(m), ros.WithMetrics(reg))

	pub, err := ros.Advertise[testImageSF](pubNode, "raw/shm")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	var img testImageSF
	_, err = ros.SubscribeRaw(subNode, "raw/shm", img.ROSMessageType(), img.ROSMD5Sum(), true,
		func(rm ros.RawMessage) { got <- len(rm.Frame) })
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "raw sfm attach", func() bool { return pub.NumSubscribers() == 1 })

	src, _ := core.NewWithCapacity[testImageSF](4096)
	src.Data.MustResize(100)
	pub.Publish(src)
	core.Release(src)
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no raw SFM frame")
	}

	snap := reg.Snapshot()
	if f := snap.Shm.Fallbacks; f != 0 {
		t.Errorf("shm fallbacks = %d (by reason %+v), want 0", f, snap.Shm.FallbackReasons)
	}
	if r := snap.Subscribers["raw/shm"].Reconnects; r != 0 {
		t.Errorf("reconnects = %d, want 0", r)
	}
	// No peer lease was ever taken: the first one handed out now is slot
	// 0 in its first generation.
	if peer, gen, err := store.AcquirePeer(1); err != nil || peer != 0 || gen != 1 {
		t.Errorf("AcquirePeer = (%d, gen %d, %v), want the untouched (0, gen 1)", peer, gen, err)
	} else {
		store.RetirePeer(peer)
	}
}

// TestAdvertiseRawSFMToInprocSubscriber: a raw SFM publisher (rosbag
// play, a relay) hands its frames to same-process typed subscribers
// through the in-process attachment, which must adopt them exactly like
// frames off a socket — live and latched, and converted when the frames
// were recorded in the other byte order.
func TestAdvertiseRawSFMToInprocSubscriber(t *testing.T) {
	src, _ := core.NewWithCapacity[testImageSF](4096)
	src.Height, src.Width = 0x01020304, 7
	src.Encoding.MustSet("mono8")
	src.Data.MustResize(3)
	copy(src.Data.Slice(), []byte{9, 8, 7})
	img, _ := core.Bytes(src)
	native := append([]byte(nil), img...)
	core.Release(src)
	layout, err := core.LayoutOf[testImageSF]()
	if err != nil {
		t.Fatal(err)
	}
	foreign := append([]byte(nil), native...)
	if err := core.ForeignizeEndianness(foreign, layout); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		frame   []byte
		little  bool
		latched bool
	}{
		{"live", native, core.NativeLittleEndian(), false},
		{"latched", native, core.NativeLittleEndian(), true},
		{"live, foreign byte order", foreign, !core.NativeLittleEndian(), false},
		{"latched, foreign byte order", foreign, !core.NativeLittleEndian(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := ros.NewLocalMaster()
			node := newNode(t, "replay", m)
			var img testImageSF
			var opts []ros.PubOption
			if c.latched {
				opts = append(opts, ros.WithLatch())
			}
			pub, err := ros.AdvertiseRaw(node, "raw/inproc", img.ROSMessageType(), img.ROSMD5Sum(), true, c.little, opts...)
			if err != nil {
				t.Fatal(err)
			}
			type seen struct {
				h, w uint32
				enc  string
				data []byte
			}
			got := make(chan seen, 1)
			subscribe := func() {
				_, err := ros.Subscribe(node, "raw/inproc", func(m *testImageSF) {
					got <- seen{m.Height, m.Width, m.Encoding.Get(), append([]byte(nil), m.Data.Slice()...)}
				}, ros.WithTransport(ros.TransportInproc))
				if err != nil {
					t.Fatal(err)
				}
			}
			if c.latched {
				// The late subscriber gets the retained frame at attach.
				pub.PublishFrame(c.frame)
				subscribe()
			} else {
				subscribe()
				eventually(t, "inproc attach", func() bool { return pub.NumSubscribers() == 1 })
				pub.PublishFrame(c.frame)
			}
			select {
			case s := <-got:
				if s.h != 0x01020304 || s.w != 7 || s.enc != "mono8" || string(s.data) != "\x09\x08\x07" {
					t.Errorf("delivered %+v", s)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the in-process subscriber never got the raw SFM frame")
			}
		})
	}
}

// TestTopicsInfoOverProtocol checks the introspection op end to end.
func TestTopicsInfoOverProtocol(t *testing.T) {
	srv, err := ros.NewMasterServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rm, err := ros.DialMaster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()

	node := newNode(t, "pub", rm)
	if _, err := ros.Advertise[testImage](node, "intro/one"); err != nil {
		t.Fatal(err)
	}
	if _, err := ros.Advertise[otherType](node, "intro/two"); err != nil {
		t.Fatal(err)
	}

	infos, err := rm.TopicsInfo()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ros.TopicInfo)
	for _, ti := range infos {
		byName[ti.Name] = ti
	}
	one, ok := byName["intro/one"]
	if !ok || one.TypeName != "test_msgs/Image" || one.NumPublishers != 1 {
		t.Errorf("intro/one = %+v", one)
	}
	if _, ok := byName["intro/two"]; !ok {
		t.Error("intro/two missing")
	}
}
