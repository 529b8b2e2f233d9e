package ros

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
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

// TestShmQueueKeepsOrderAcrossFrameKinds is the ordering property of an
// shm link's frame queue: every frame of the link — a descriptor into a
// slot the message was born in, a descriptor into a slot it was promoted
// to at publish, or the message bytes inline — rides the same FIFO, so
// however the three interleave the subscriber sees each message exactly
// once and in publish order. The interleaving is drawn from a seed;
// inline frames are injected the way a raw SFM publisher sends them
// (fanout with no typed message), and the tail forces the genuine
// per-message fallback by retiring the peer lease under the link, after
// which every typed publish loses its Share and travels inline.
func TestShmQueueKeepsOrderAcrossFrameKinds(t *testing.T) {
	requireShm(t)
	const (
		total = 400 // randomly interleaved kinds
		tail  = 40  // typed publishes after the lease is gone
	)
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			queueDir := t.TempDir()
			t.Setenv("ROSSF_SHM_DIR", queueDir)
			reg := obs.NewRegistry()
			store, err := shm.NewStore(shm.Options{Dir: t.TempDir(), Stats: reg.Shm()})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			shared, heap := core.NewManager(), core.NewManager()
			shared.SetBackingStore(store)

			master := NewLocalMaster()
			pubNode, err := NewNode("order_pub", WithMaster(master), WithMetrics(reg), WithShmStore(store))
			if err != nil {
				t.Fatal(err)
			}
			defer pubNode.Close()
			subNode := shardNode(t, "order_sub", master, reg)

			got := make(chan uint64, total+tail)
			sub, err := Subscribe(subNode, "order/img", func(m *shardImgSF) {
				for i, b := range m.Data.Slice() {
					if b != byte(m.Seq)+byte(i) {
						t.Errorf("seq %d: payload byte %d is %#x", m.Seq, i, b)
						break
					}
				}
				got <- m.Seq
			}, WithTransport(TransportShm))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			// The queue holds the whole run: a drop would be the test's
			// doing, not the transport's.
			pub, err := Advertise[shardImgSF](pubNode, "order/img", WithQueueSize(total+tail))
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			waitFor(t, 5*time.Second, "the shm link", func() bool { return pub.NumSubscribers() == 1 })

			const (
				slotBacked = iota
				promoted
				inline
			)
			var sent [3]int
			publish := func(seq uint64, kind int) {
				mgr := shared
				if kind != slotBacked {
					mgr = heap
				}
				size := 1 + rng.Intn(12<<10)
				m, err := core.NewIn[shardImgSF](mgr, size+256)
				if err != nil {
					t.Fatal(err)
				}
				defer core.Release(m) //nolint:errcheck // the publisher's own reference
				m.Seq = seq
				m.Data.MustResize(size)
				for i, d := 0, m.Data.Slice(); i < len(d); i++ {
					d[i] = byte(seq) + byte(i)
				}
				if kind == inline {
					image, err := core.Bytes(m)
					if err != nil {
						t.Fatal(err)
					}
					pub.ep.fanout(append([]byte(nil), image...), nil, core.Ref{}, nil)
				} else if err := pub.Publish(m); err != nil {
					t.Fatal(err)
				}
				sent[kind]++
			}
			expect := func(from, to uint64) {
				t.Helper()
				for want := from; want < to; want++ {
					select {
					case seq := <-got:
						if seq != want {
							t.Fatalf("delivered seq %d where %d was due (seed %d)", seq, want, seed)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("seq %d never arrived (seed %d)", want, seed)
					}
				}
			}

			for seq := uint64(0); seq < total; seq++ {
				publish(seq, rng.Intn(3))
			}
			expect(0, total)
			snap := reg.Snapshot().Shm
			if int(snap.DescriptorSends) != sent[slotBacked]+sent[promoted] || int(snap.Promotions) != sent[promoted] || snap.Fallbacks != 0 {
				t.Errorf("sent %d slot-backed, %d promoted, %d inline; counted %d descriptor sends, %d promotions, %d fallbacks",
					sent[slotBacked], sent[promoted], sent[inline], snap.DescriptorSends, snap.Promotions, snap.Fallbacks)
			}

			store.RetirePeer(0) // the link's lease: the first one this store issued
			for seq := uint64(total); seq < total+tail; seq++ {
				publish(seq, rng.Intn(2))
			}
			expect(total, total+tail)
			if snap := reg.Snapshot().Shm; snap.Fallbacks != tail {
				t.Errorf("%d fallbacks counted for %d publishes without a lease", snap.Fallbacks, tail)
			}
			select {
			case seq := <-got:
				t.Errorf("seq %d delivered twice", seq)
			default:
			}

			sub.Close()
			pub.Close()
			waitFor(t, 5*time.Second, "every slot reference to come back", store.Idle)
			if left, _ := os.ReadDir(queueDir); len(left) != 0 {
				t.Errorf("the link left %d entries in the queue directory", len(left))
			}
		})
	}
}
