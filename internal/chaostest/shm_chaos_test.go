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
	"rossf/msgs/std_msgs"
)

// Environment protocol between TestShmSubscriberSIGKILL and its
// re-exec'd child helper.
const (
	shmKillChildEnv  = "ROSSF_CHAOS_SHM_CHILD"
	shmKillMasterEnv = "ROSSF_CHAOS_SHM_MASTER"
	shmKillTopic     = "/chaos/shm_kill"
)

// syncBuffer is an io.Writer safe for concurrent Write (child process
// output) and Contains (parent assertions).
type syncBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}

func (s *syncBuffer) Contains(sub string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(sub) > 0 && len(s.b) >= len(sub) && contains(s.b, sub)
}

func contains(b []byte, sub string) bool {
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == sub {
			return true
		}
	}
	return false
}

// TestShmSubscriberSIGKILL is the crash-fault scenario for the
// shared-memory transport: a child process subscribes over shm, gets
// SIGKILLed mid-stream (no teardown, no heartbeat, slot references
// still held), and the publisher must
//
//   - learn of the death from the frame queue itself — the next write
//     to the dead reader's FIFO fails with EPIPE — and drop the link,
//   - reap the dead subscriber's lease and reclaim its slot references
//     (no segment leaks, store returns to idle),
//   - find no FIFO left behind: the victim unlinked its queue's name when
//     the publisher answered, so not even SIGKILL strands one,
//   - never wedge: a surviving same-machine shm subscriber keeps
//     receiving byte-perfect messages throughout,
//   - leak nothing: goroutines and message life-cycle gauges return to
//     their baselines after teardown.
func TestShmSubscriberSIGKILL(t *testing.T) {
	if !shm.Available() {
		msgtest.NotVerified(t, "no shared-memory directory on this host")
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	const size = 1024

	// Both processes make their frame queues here (the child inherits the
	// variable); the store's segments live in a directory of their own.
	queueDir := t.TempDir()
	t.Setenv("ROSSF_SHM_DIR", queueDir)
	queues := func() []os.DirEntry {
		entries, err := os.ReadDir(queueDir)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}

	reg := obs.NewRegistry()
	store, err := shm.NewStore(shm.Options{
		Dir:          t.TempDir(),
		LeaseTimeout: 250 * time.Millisecond,
		Stats:        reg.Shm(),
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	// Registered before every other cleanup, so it runs last — after the
	// nodes have closed and released every outstanding slot reference.
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for !store.Idle() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if !store.Idle() {
			t.Errorf("store never returned to idle: a SIGKILLed subscriber leaked slot references")
		}
		store.Close()
	})
	mgr := core.NewManager()
	mgr.SetBackingStore(store)

	// Baselines AFTER store creation: the store's lease reaper is a
	// long-lived goroutine that belongs to the baseline.
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

	pubNode, err := ros.NewNode("chaos_shm_pub", ros.WithMaster(dial("pub")),
		ros.WithShmStore(store), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pubNode.Close() })
	survivorNode, err := ros.NewNode("chaos_shm_survivor", ros.WithMaster(dial("survivor")),
		ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { survivorNode.Close() })

	rec := newReceiver(size)
	if _, err := ros.Subscribe(survivorNode, shmKillTopic, func(m *std_msgs.StringSF) {
		rec.accept(m.Data.Get())
	}, ros.WithTransport(ros.TransportShm)); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub, err := ros.Advertise[std_msgs.StringSF](pubNode, shmKillTopic)
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	out := &syncBuffer{}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShmKillChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		shmKillChildEnv+"=1",
		shmKillMasterEnv+"="+srv.Addr(),
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

	// Background pump of deterministic store-backed payloads.
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
			m, err := core.NewIn[std_msgs.StringSF](mgr, 4096)
			if err != nil {
				return
			}
			m.Data.MustSet(payload(i, size))
			pubErr := pub.Publish(m)
			core.Release(m) //nolint:errcheck // pump exits below on publish failure
			if pubErr != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		<-pumpDone
	}()

	eventually(t, 10*time.Second, "child receiving over shared memory", func() bool {
		return out.Contains("CHILD_RECEIVING")
	})
	eventually(t, 10*time.Second, "survivor receiving", func() bool {
		return rec.distinct() >= 10
	})
	if left := queues(); len(left) != 0 {
		t.Errorf("two live shm links, yet %d queue name(s) still in the shm directory", len(left))
	}

	// SIGKILL: no teardown, no RetirePeer, heartbeat stops mid-lease.
	preKill := rec.distinct()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing child: %v", err)
	}
	<-exited

	eventually(t, 10*time.Second, "crashed subscriber's lease reaped", func() bool {
		return reg.Snapshot().Shm.LeasesReaped >= 1
	})
	eventually(t, 10*time.Second, "survivor progress after the kill", func() bool {
		return rec.distinct() >= preKill+20
	})
	// The pump publishes every millisecond; the first write after the kill
	// hits a FIFO with no reader.
	eventually(t, 10*time.Second, "dead connection retired", func() bool {
		return pub.NumSubscribers() == 1
	})
	if left := queues(); len(left) != 0 {
		t.Errorf("the SIGKILLed subscriber left %d FIFO(s) behind", len(left))
	}
	if bad := rec.corrupted(); len(bad) > 0 {
		t.Fatalf("survivor received %d corrupted payloads (first: %.60q)", len(bad), bad[0])
	}
}

// TestShmKillChildHelper is the victim half of TestShmSubscriberSIGKILL,
// run in a child process. It subscribes over shm, announces once
// delivery demonstrably uses mapped segments, then keeps consuming
// until the parent kills it with SIGKILL.
func TestShmKillChildHelper(t *testing.T) {
	if os.Getenv(shmKillChildEnv) != "1" {
		t.Skip("helper for TestShmSubscriberSIGKILL")
	}
	rm, err := ros.DialMaster(os.Getenv(shmKillMasterEnv))
	if err != nil {
		t.Fatalf("DialMaster: %v", err)
	}
	defer rm.Close()
	reg := obs.NewRegistry()
	node, err := ros.NewNode("chaos_shm_child", ros.WithMaster(rm), ros.WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	var announce sync.Once
	_, err = ros.Subscribe(node, shmKillTopic, func(m *std_msgs.StringSF) {
		_ = m.Data.Get()
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
