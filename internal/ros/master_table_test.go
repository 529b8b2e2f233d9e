package ros

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLocalMasterShardedEquivalence hammers the topic table from many
// goroutines — register, watch, unregister across thousands of distinct
// topics — and then requires the introspection views (Topics,
// TopicsInfo) to be sorted, complete, and correct per topic. (The name
// predates the per-topic locks; the invariant it checks is unchanged.)
func TestLocalMasterShardedEquivalence(t *testing.T) {
	m := NewLocalMaster()
	const workers = 16
	const topicsPerWorker = 100

	var notified atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < topicsPerWorker; i++ {
				topic := fmt.Sprintf("/mastereq/w%d/t%d", w, i)
				unreg, err := m.RegisterPublisher(topic, PublisherInfo{
					NodeName: fmt.Sprintf("node%d", w),
					Addr:     "127.0.0.1:1",
					TypeName: "pkg/Type", MD5: "abc",
				})
				if err != nil {
					t.Errorf("register %s: %v", topic, err)
					return
				}
				cancel, err := m.WatchPublishers(topic, "pkg/Type", "abc", func(pubs []PublisherInfo) {
					notified.Add(1)
				})
				if err != nil {
					t.Errorf("watch %s: %v", topic, err)
					return
				}
				// A second publisher on the same topic exercises same-topic
				// serialization.
				unreg2, err := m.RegisterPublisher(topic, PublisherInfo{
					NodeName: fmt.Sprintf("node%d-b", w),
					Addr:     "127.0.0.1:2",
					TypeName: "pkg/Type", MD5: "abc",
				})
				if err != nil {
					t.Errorf("register second %s: %v", topic, err)
					return
				}
				unreg2()
				cancel()
				_ = unreg // keep the first publisher registered
			}
		}(w)
	}
	wg.Wait()

	const total = workers * topicsPerWorker
	topics := m.Topics()
	if len(topics) != total {
		t.Fatalf("Topics() has %d names, want %d", len(topics), total)
	}
	for i := 1; i < len(topics); i++ {
		if topics[i-1] >= topics[i] {
			t.Fatalf("Topics() not sorted at %d: %q >= %q", i, topics[i-1], topics[i])
		}
	}
	infos := m.TopicsInfo()
	if len(infos) != total {
		t.Fatalf("TopicsInfo() has %d entries, want %d", len(infos), total)
	}
	for i, ti := range infos {
		if ti.Name != topics[i] {
			t.Fatalf("TopicsInfo order diverges from Topics at %d: %q vs %q", i, ti.Name, topics[i])
		}
		if ti.TypeName != "pkg/Type" || ti.MD5 != "abc" {
			t.Fatalf("topic %s has wrong binding %s/%s", ti.Name, ti.TypeName, ti.MD5)
		}
		if ti.NumPublishers != 1 {
			t.Fatalf("topic %s has %d publishers, want 1", ti.Name, ti.NumPublishers)
		}
	}
	// Each watch sees the initial snapshot plus the second register and
	// its unregister (callbacks registered after the first publisher):
	// at least 3 notifications per topic.
	if n := notified.Load(); n < uint64(total*3) {
		t.Fatalf("watch callbacks fired %d times, want >= %d", n, total*3)
	}

	// Type mismatches must still be detected per topic.
	if _, err := m.RegisterPublisher(topics[0], PublisherInfo{
		TypeName: "other/Type", MD5: "zzz",
	}); err == nil {
		t.Fatal("type mismatch not detected on a populated table")
	}
}

// TestLocalMasterShardContention is the contention smoke: concurrent
// register/unregister churn on distinct topics from many goroutines
// must complete (the race detector verifies safety; liveness here is
// just that it finishes).
func TestLocalMasterShardContention(t *testing.T) {
	m := NewLocalMaster()
	const workers = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				topic := fmt.Sprintf("/contend/w%d/t%d", w, i%20)
				unreg, err := m.RegisterPublisher(topic, PublisherInfo{
					NodeName: "n", TypeName: "T", MD5: "m",
				})
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				unreg()
			}
		}(w)
	}
	wg.Wait()
	if got := len(m.Topics()); got != workers*20 {
		t.Fatalf("topic table has %d entries, want %d", got, workers*20)
	}
}

// stripeOf is FNV-1a masked to 16 buckets: the hash the topic table
// was once striped by. The isolation test uses it to pick a topic that
// would have shared a lock with the wedged one.
func stripeOf(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h & 15
}

// TestWedgedWatcherStallsOnlyItsTopic: a watcher that blocks inside its
// callback (as MasterServer's does while a socket write waits out its
// deadline) holds up registrations on its own topic only. A topic that
// hashes to the wedged topic's old stripe must register at once.
func TestWedgedWatcherStallsOnlyItsTopic(t *testing.T) {
	m := NewLocalMaster()
	const wedged = "/wedged"
	var other string
	for i := 0; ; i++ {
		if other = fmt.Sprintf("/other%d", i); stripeOf(other) == stripeOf(wedged) {
			break
		}
	}

	release := make(chan struct{})
	entered := make(chan struct{})
	var calls atomic.Int32
	cancel, err := m.WatchPublishers(wedged, "T", "m", func([]PublisherInfo) {
		if calls.Add(1) == 2 { // the first call is the initial snapshot
			close(entered)
			<-release
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	wedgedDone := make(chan struct{})
	go func() {
		defer close(wedgedDone)
		if _, err := m.RegisterPublisher(wedged, PublisherInfo{NodeName: "a", TypeName: "T", MD5: "m"}); err != nil {
			t.Errorf("register %s: %v", wedged, err)
		}
	}()
	<-entered
	unwedge := sync.OnceFunc(func() { close(release); <-wedgedDone })
	defer unwedge()

	done := make(chan error, 1)
	go func() {
		_, err := m.RegisterPublisher(other, PublisherInfo{NodeName: "b", TypeName: "T", MD5: "m"})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("register %s: %v", other, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("registration on %s waited behind a wedged watcher of %s", other, wedged)
	}
	if got := m.Topics(); len(got) != 2 {
		t.Fatalf("Topics() = %v during the wedge, want both topics", got)
	}

	// Introspection that reads publisher counts is not isolated:
	// TopicsInfo takes each topic's lock, so it waits on the wedged
	// topic until its watcher returns.
	info := make(chan []TopicInfo, 1)
	go func() { info <- m.TopicsInfo() }()
	select {
	case got := <-info:
		t.Fatalf("TopicsInfo() = %v returned while a watcher held %s's lock", got, wedged)
	case <-time.After(100 * time.Millisecond):
	}
	unwedge()
	select {
	case got := <-info:
		if len(got) != 2 {
			t.Fatalf("TopicsInfo() = %v after the wedge, want both topics", got)
		}
	case <-time.After(time.Second):
		t.Fatalf("TopicsInfo() still blocked after %s's watcher returned", wedged)
	}
}
