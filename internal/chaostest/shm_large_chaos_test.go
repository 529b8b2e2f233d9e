package chaostest

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
)

// Environment protocol between TestShmLargeSubscriberSIGKILL and its
// re-exec'd child helper.
const (
	shmLargeChildEnv  = "ROSSF_CHAOS_SHM_LARGE_CHILD"
	shmLargeMasterEnv = "ROSSF_CHAOS_SHM_LARGE_MASTER"
	shmLargeTopic     = "/chaos/shm_large_kill"

	// Above the 64 MiB slot-class ceiling, so every message rides the
	// large-object tier. The payloads are stamped sparsely (three bytes),
	// so the extents stay almost entirely unwritten.
	shmLargeSize = 72 << 20
)

// largeBlobSF is a point-cloud-sized SFM message for the large-object
// crash tests.
type largeBlobSF struct {
	Seq  uint32
	Data core.Vector[uint8]
}

func (*largeBlobSF) ROSMessageType() string { return "chaos_msgs/LargeBlob" }
func (*largeBlobSF) ROSMD5Sum() string      { return "feedfacecafebeef0123456789abcdef" }
func (*largeBlobSF) SFMMessage()            {}

// stampBlob marks the payload's first, middle, and last bytes with the
// sequence number; checkBlob verifies them without touching the rest of
// the (sparse) extent.
func stampBlob(d []byte, seq uint32) {
	b := byte(seq)
	d[0], d[len(d)/2], d[len(d)-1] = b, b, b
}

func checkBlob(d []byte, seq uint32) bool {
	b := byte(seq)
	return len(d) == shmLargeSize && d[0] == b && d[len(d)/2] == b && d[len(d)-1] == b
}

// blobReceiver tracks distinct verified sequence numbers.
type blobReceiver struct {
	mu      sync.Mutex
	seen    map[uint32]struct{}
	corrupt int
}

func (r *blobReceiver) accept(m *largeBlobSF) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !checkBlob(m.Data.Slice(), m.Seq) {
		r.corrupt++
		return
	}
	r.seen[m.Seq] = struct{}{}
}

func (r *blobReceiver) distinct() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seen)
}

func (r *blobReceiver) corrupted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.corrupt
}

// TestShmLargeSubscriberSIGKILL is the crash-fault scenario for the
// large-object tier: a child process subscribes over shm, >64 MiB
// messages stream as descriptors into dedicated large segments, and the
// child is SIGKILLed with a message in flight (references held, no
// teardown). The publisher must
//
//   - reap the dead subscriber's lease and reclaim its references on the
//     large segments (the store returns to idle; Close's deferred-unlink
//     path never wedges on the crashed peer),
//   - keep a surviving shm subscriber receiving verified large payloads
//     throughout,
//   - never fall back to inline TCP: every delivered message of this
//     workload rides the descriptor path.
func TestShmLargeSubscriberSIGKILL(t *testing.T) {
	if !shm.Available() {
		msgtest.NotVerified(t, "no shared-memory directory on this host")
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	if free := shm.DirBytesFree(dir); free > 0 && free < 1<<30 {
		msgtest.NotVerified(t, "only %d bytes free under %s, need 1 GiB headroom", free, dir)
	}

	reg := obs.NewRegistry()
	store, err := shm.NewStore(shm.Options{
		Dir:          dir,
		LeaseTimeout: 250 * time.Millisecond,
		Stats:        reg.Shm(),
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for !store.Idle() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if !store.Idle() {
			t.Errorf("store never returned to idle: the SIGKILLed subscriber leaked large-segment references")
		}
		store.Close()
		select {
		case <-store.TeardownDone():
		case <-time.After(10 * time.Second):
			t.Error("store teardown never completed")
		}
	})
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	checkGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)

	srv, err := ros.NewMasterServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewMasterServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func(name string) *ros.RemoteMaster {
		rm, err := ros.DialMaster(srv.Addr())
		if err != nil {
			t.Fatalf("DialMaster(%s): %v", name, err)
		}
		t.Cleanup(func() { rm.Close() })
		return rm
	}

	pubNode, err := ros.NewNode("chaos_shm_large_pub", ros.WithMaster(dial("pub")),
		ros.WithShmStore(store), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pubNode.Close() })
	survivorNode, err := ros.NewNode("chaos_shm_large_survivor", ros.WithMaster(dial("survivor")),
		ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { survivorNode.Close() })

	rec := &blobReceiver{seen: make(map[uint32]struct{})}
	if _, err := ros.Subscribe(survivorNode, shmLargeTopic, rec.accept,
		ros.WithTransport(ros.TransportShm)); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub, err := ros.Advertise[largeBlobSF](pubNode, shmLargeTopic)
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	out := &syncBuffer{}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShmLargeKillChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		shmLargeChildEnv+"=1",
		shmLargeMasterEnv+"="+srv.Addr(),
	)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }() //nolint:errcheck // SIGKILL exit is the expected outcome
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
	})

	eventually(t, 10*time.Second, "child and survivor subscriptions", func() bool {
		return pub.NumSubscribers() == 2
	})

	// Background pump of sparse large messages.
	stop := make(chan struct{})
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m, err := core.NewIn[largeBlobSF](mgr, shmLargeSize+8192)
			if err != nil {
				return
			}
			m.Seq = uint32(i)
			m.Data.MustResize(shmLargeSize)
			stampBlob(m.Data.Slice(), m.Seq)
			pubErr := pub.Publish(m)
			core.Release(m) //nolint:errcheck // pump exits below on publish failure
			if pubErr != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		<-pumpDone
	}()

	eventually(t, 15*time.Second, "child receiving large messages over shared memory", func() bool {
		return out.Contains("CHILD_RECEIVING")
	})
	eventually(t, 15*time.Second, "survivor receiving large messages", func() bool {
		return rec.distinct() >= 5
	})

	// Steady state before the crash: every large message rode the
	// descriptor path, nothing dropped to inline TCP.
	if pre := reg.Snapshot().Shm; pre.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d before the kill, want 0 (reasons: %+v)", pre.Fallbacks, pre.FallbackReasons)
	}

	// SIGKILL with a >64 MiB message in flight: no teardown, no
	// RetirePeer, the child's large-segment references just stop moving.
	preKill := rec.distinct()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing child: %v", err)
	}
	<-exited

	eventually(t, 10*time.Second, "crashed subscriber's lease reaped", func() bool {
		return reg.Snapshot().Shm.LeasesReaped >= 1
	})
	eventually(t, 15*time.Second, "survivor progress after the kill", func() bool {
		return rec.distinct() >= preKill+10
	})
	eventually(t, 10*time.Second, "dead connection retired", func() bool {
		return pub.NumSubscribers() == 1
	})
	if n := rec.corrupted(); n > 0 {
		t.Fatalf("survivor received %d corrupted large payloads", n)
	}
	// After the crash only aggregate lease-lost transients are tolerated
	// (Shares racing the reaper while the dead peer's connection drains);
	// every CLASSIFIED reason must still read zero — a large message
	// must never fall back for being large.
	fr := reg.Snapshot().Shm.FallbackReasons
	if fr.Oversized != 0 || fr.HeapArena != 0 || fr.PeerTableFull != 0 || fr.RemotePeer != 0 || fr.OldBuild != 0 {
		t.Errorf("classified fallbacks after the kill: %+v, want all zero", fr)
	}
}

// TestShmLargeKillChildHelper is the victim half of
// TestShmLargeSubscriberSIGKILL, run in a child process. It subscribes
// over shm, announces once large-message delivery demonstrably uses
// mapped segments, then keeps consuming until the parent kills it.
func TestShmLargeKillChildHelper(t *testing.T) {
	if os.Getenv(shmLargeChildEnv) != "1" {
		t.Skip("helper for TestShmLargeSubscriberSIGKILL")
	}
	rm, err := ros.DialMaster(os.Getenv(shmLargeMasterEnv))
	if err != nil {
		t.Fatalf("DialMaster: %v", err)
	}
	defer rm.Close()
	reg := obs.NewRegistry()
	node, err := ros.NewNode("chaos_shm_large_child", ros.WithMaster(rm), ros.WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	var announce sync.Once
	_, err = ros.Subscribe(node, shmLargeTopic, func(m *largeBlobSF) {
		if !checkBlob(m.Data.Slice(), m.Seq) {
			fmt.Println("CHILD_CORRUPT")
			return
		}
		if reg.Snapshot().Shm.SegmentsMapped > 0 {
			announce.Do(func() { fmt.Println("CHILD_RECEIVING") })
		}
	}, ros.WithTransport(ros.TransportShm))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Consume until SIGKILLed; the timer only bounds an orphaned run.
	time.Sleep(60 * time.Second)
}
