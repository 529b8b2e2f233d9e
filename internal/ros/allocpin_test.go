package ros_test

import (
	"runtime"
	"testing"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
)

// TestSteadyStateAllocsPerMessage pins the allocation budget of the
// whole message life cycle — construct, publish, transmit, adopt,
// callback, release on both sides — per transport, with the instruments
// on: the heap objects the process allocates per delivered message
// (runtime.MemStats.Mallocs, the counter the gated benchmark reads) stay
// within budget once pools are warm. The records, the fan-out snapshot
// and the dispatch item are all recycled or passed by value — on shm so
// are the descriptor (encoded into the write loop's scratch) and the
// mapper's resolution (a token, no closure) — so no transport allocates
// in the steady state; the budget of 2 leaves room for the runtime's own
// background allocations.
func TestSteadyStateAllocsPerMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a few thousand round trips per transport")
	}
	cases := []struct {
		name      string
		transport ros.TransportMode
		budget    float64
	}{
		{"tcp", ros.TransportTCP, 2},
		{"inproc", ros.TransportInproc, 2},
		{"shm", ros.TransportShm, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			pubMgr, subMgr := core.NewManager(), core.NewManager()
			master := ros.NewLocalMaster()
			pubOpts := []ros.Option{ros.WithMaster(master), ros.WithMetrics(reg)}
			if c.transport == ros.TransportShm {
				requireShm(t)
				store := newShmStore(t, reg)
				pubMgr.SetBackingStore(store)
				pubOpts = append(pubOpts, ros.WithShmStore(store))
			}
			pubNode := newNodeOpts(t, "allocpin_pub", pubOpts...)
			subNode := pubNode // intra-process delivery is within one node
			if c.transport != ros.TransportInproc {
				subNode = newNodeOpts(t, "allocpin_sub", ros.WithMaster(master), ros.WithMetrics(reg))
			}

			delivered := make(chan struct{}, 1)
			sub, err := ros.Subscribe(subNode, "allocpin", func(img *testImageSF) {
				if img.Height != 64 {
					t.Errorf("delivered height %d, want 64", img.Height)
				}
				delivered <- struct{}{}
			}, ros.WithTransport(c.transport), ros.WithManager(subMgr))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			pub, err := ros.Advertise[testImageSF](pubNode, "allocpin")
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			eventually(t, "attachment", func() bool { return pub.NumSubscribers() == 1 })

			roundTrip := func() {
				img, err := core.NewIn[testImageSF](pubMgr, 8192)
				if err != nil {
					t.Fatal(err)
				}
				img.Height, img.Width = 64, 64
				img.Encoding.MustSet("mono8")
				img.Data.MustResize(4096)
				if err := pub.Publish(img); err != nil {
					t.Fatal(err)
				}
				if _, err := core.Release(img); err != nil {
					t.Fatal(err)
				}
				<-delivered
			}
			for range 200 { // warm the pools, the batch scratch and the ingress buffer
				roundTrip()
			}

			// A background goroutine can add a few objects to one run; the
			// budget is about the steady state, so take the best of three.
			const n = 2000
			best := float64(-1)
			var ms0, ms1 runtime.MemStats
			for range 3 {
				runtime.ReadMemStats(&ms0)
				for range n {
					roundTrip()
				}
				runtime.ReadMemStats(&ms1)
				if per := float64(ms1.Mallocs-ms0.Mallocs) / n; best < 0 || per < best {
					best = per
				}
			}
			if sent := reg.Snapshot().Shm.DescriptorSends; c.transport == ros.TransportShm && sent < 3*n {
				t.Errorf("shm: %d of %d measured messages travelled as descriptors", sent, 3*n)
			}
			t.Logf("%s: %.3f heap objects per delivered message (budget %.0f)", c.name, best, c.budget)
			if best > c.budget {
				t.Errorf("%s: %.3f heap objects per delivered message, budget %.0f", c.name, best, c.budget)
			}
		})
	}
}
