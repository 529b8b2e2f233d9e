package ros_test

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
)

// requireShm skips a frame-queue test on a host without the transport,
// loudly: a skip is silent without -v and must not read as a pass.
func requireShm(t *testing.T) {
	t.Helper()
	if !shm.Available() {
		msgtest.NotVerified(t, "no shared-memory directory on this host")
	}
}

// queueDirEntries lists what the subscriber's shm directory holds.
func queueDirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// roundTrip publishes one store- or heap-backed image and waits for it.
func roundTrip(t *testing.T, pub *ros.Publisher[testImageSF], mgr *core.Manager, got <-chan uint32, height uint32) {
	t.Helper()
	img, err := core.NewIn[testImageSF](mgr, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer core.Release(img) //nolint:errcheck // the publisher's own reference
	img.Height = height
	if err := pub.Publish(img); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-got:
		if h != height {
			t.Fatalf("received height %d, want %d", h, height)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message received")
	}
}

// TestShmQueueLeavesNoFIFO is the hygiene contract of the frame queue:
// its name exists only between the subscriber's offer and the
// publisher's answer, so whatever becomes of the dial — a live shm link,
// a publisher that answers TCP, a refused dial, a peer that hangs up in
// the middle of the handshake — the shm directory holds no FIFO once the
// answer is in (or never will be), and none after the link closes.
func TestShmQueueLeavesNoFIFO(t *testing.T) {
	requireShm(t)

	// link runs one subscription against a publisher with or without a
	// store and checks the directory while the link is up and after.
	link := func(t *testing.T, withStore bool) {
		queueDir := t.TempDir()
		t.Setenv("ROSSF_SHM_DIR", queueDir)
		reg := obs.NewRegistry()
		mgr := core.NewManager()
		m := ros.NewLocalMaster()
		pubOpts := []ros.Option{ros.WithMaster(m), ros.WithMetrics(reg)}
		if withStore {
			store := newShmStore(t, reg)
			mgr.SetBackingStore(store)
			pubOpts = append(pubOpts, ros.WithShmStore(store))
		}
		pubNode := newNodeOpts(t, "hyg_pub", pubOpts...)
		subNode := newNodeOpts(t, "hyg_sub", ros.WithMaster(m), ros.WithMetrics(reg))
		got := make(chan uint32, 1)
		sub, err := ros.Subscribe(subNode, "hyg", func(img *testImageSF) { got <- img.Height },
			ros.WithTransport(ros.TransportShm))
		if err != nil {
			t.Fatal(err)
		}
		pub, err := ros.Advertise[testImageSF](pubNode, "hyg")
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "the link", func() bool { return pub.NumSubscribers() == 1 })
		roundTrip(t, pub, mgr, got, 7)
		if sends := reg.Snapshot().Shm.DescriptorSends; (sends == 1) != withStore {
			t.Errorf("%d descriptor sends with store=%v", sends, withStore)
		}
		if left := queueDirEntries(t, queueDir); len(left) != 0 {
			t.Errorf("live link: %v still in the shm directory", left)
		}
		sub.Close()
		if withStore {
			// Nothing is being published, so no write can run into the
			// closed queue: the publisher learns it from the connection.
			eventually(t, "the idle publisher to drop the closed link", func() bool { return pub.NumSubscribers() == 0 })
		}
		pub.Close()
		if left := queueDirEntries(t, queueDir); len(left) != 0 {
			t.Errorf("after close: %v left in the shm directory", left)
		}
	}
	t.Run("normal close", func(t *testing.T) { link(t, true) })
	t.Run("publisher answers tcp", func(t *testing.T) { link(t, false) })

	// failing points a subscription at an address that never completes
	// a handshake and lets it run through a few redials.
	failing := func(t *testing.T, addr string, redials func() bool) {
		queueDir := t.TempDir()
		t.Setenv("ROSSF_SHM_DIR", queueDir)
		var img testImageSF
		m := ros.NewLocalMaster()
		if _, err := m.RegisterPublisher("hyg", ros.PublisherInfo{
			NodeName: "ghost", Addr: addr, TypeName: img.ROSMessageType(), MD5: img.ROSMD5Sum(),
		}); err != nil {
			t.Fatal(err)
		}
		subNode := newNodeOpts(t, "hyg_sub", ros.WithMaster(m))
		sub, err := ros.Subscribe(subNode, "hyg", func(*testImageSF) {},
			ros.WithTransport(ros.TransportShm),
			ros.WithRetry(ros.RetryPolicy{InitialBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "a few failed dials", redials)
		sub.Close()
		if left := queueDirEntries(t, queueDir); len(left) != 0 {
			t.Errorf("failed dials left %v in the shm directory", left)
		}
	}
	t.Run("dial refused", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := lis.Addr().String()
		lis.Close() // nobody listens there any more
		start := time.Now()
		failing(t, addr, func() bool { return time.Since(start) > 50*time.Millisecond })
	})
	t.Run("peer hangs up mid-handshake", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		hangUps := make(chan struct{}, 64)
		go func() {
			for {
				c, err := lis.Accept()
				if err != nil {
					return
				}
				c.Read(make([]byte, 16)) //nolint:errcheck // take part of the offer, then vanish
				c.Close()
				select {
				case hangUps <- struct{}{}:
				default:
				}
			}
		}()
		failing(t, lis.Addr().String(), func() bool { return len(hangUps) >= 3 })
	})
}

// TestShmQueueCreationFailureFallsBackToTCP: a subscriber whose shm
// directory cannot hold a FIFO still wants shm (the publisher has a
// store, both share a boot), so the failure must surface as the typed
// no_queue reject in /metrics and the link must come up over TCP on the
// same dial.
func TestShmQueueCreationFailureFallsBackToTCP(t *testing.T) {
	requireShm(t)
	dirs := map[string]func(t *testing.T) string{
		"not a directory": func(t *testing.T) string {
			f := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(f, nil, 0o600); err != nil {
				t.Fatal(err)
			}
			return f
		},
		"read-only directory": func(t *testing.T) string {
			if os.Geteuid() == 0 {
				msgtest.NotVerified(t, "root creates FIFOs in a read-only directory; the not-a-directory case covers the failure")
			}
			d := t.TempDir()
			if err := os.Chmod(d, 0o500); err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, unusable := range dirs {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			store := newShmStore(t, reg) // before the env change: its directory works
			mgr := core.NewManager()
			mgr.SetBackingStore(store)
			t.Setenv("ROSSF_SHM_DIR", unusable(t))

			m := ros.NewLocalMaster()
			pubNode := newNodeOpts(t, "nq_pub", ros.WithMaster(m), ros.WithMetrics(reg), ros.WithShmStore(store))
			subNode := newNodeOpts(t, "nq_sub", ros.WithMaster(m), ros.WithMetrics(reg),
				ros.WithMetricsAddr("127.0.0.1:0"))
			got := make(chan uint32, 1)
			sub, err := ros.Subscribe(subNode, "nq", func(img *testImageSF) { got <- img.Height },
				ros.WithTransport(ros.TransportShm))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			pub, err := ros.Advertise[testImageSF](pubNode, "nq")
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			eventually(t, "the tcp link", func() bool { return pub.NumSubscribers() == 1 })
			roundTrip(t, pub, mgr, got, 11)
			roundTrip(t, pub, mgr, got, 12)

			resp, err := http.Get("http://" + subNode.MetricsAddr() + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var payload ros.MetricsPayload
			if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
				t.Fatal(err)
			}
			sh := payload.Obs.Shm
			if sh.FallbackReasons.NoQueue != 1 || sh.Fallbacks != 1 {
				t.Errorf("/metrics: no_queue = %d, fallbacks = %d; want one typed reject for the one link", sh.FallbackReasons.NoQueue, sh.Fallbacks)
			}
			if sh.DescriptorSends != 0 {
				t.Errorf("%d descriptor sends on a link that has no queue", sh.DescriptorSends)
			}
		})
	}
}
