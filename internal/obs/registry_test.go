package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardedRegistryEquivalence drives a concurrent workload —
// interleaved instrument lookups and atomic updates across many topics
// — into one Registry, then requires every aggregated view to hold
// exactly the values the workload implies. (The name predates the
// single-lock registry; the invariant it checks is unchanged.)
func TestShardedRegistryEquivalence(t *testing.T) {
	const workers = 16
	const topicsPerWorker = 50

	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < topicsPerWorker; i++ {
				topic := fmt.Sprintf("/shardeq/w%d/t%d", w, i)
				p := r.Publisher(topic)
				if r.Publisher(topic) != p {
					t.Errorf("%s: second lookup returned a different instrument", topic)
				}
				for k := 0; k < 7; k++ {
					p.Messages.Inc()
				}
				p.Bytes.Add(uint64(w*1000 + i))
				r.Subscriber(topic).Messages.Add(3)
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	if len(snap.Publishers) != workers*topicsPerWorker {
		t.Fatalf("snapshot has %d publishers, want %d", len(snap.Publishers), workers*topicsPerWorker)
	}
	if len(snap.Subscribers) != workers*topicsPerWorker {
		t.Fatalf("snapshot has %d subscribers, want %d", len(snap.Subscribers), workers*topicsPerWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < topicsPerWorker; i++ {
			topic := fmt.Sprintf("/shardeq/w%d/t%d", w, i)
			want := PubSnapshot{Messages: 7, Bytes: uint64(w*1000 + i)}
			if got := snap.Publishers[topic]; got != want {
				t.Fatalf("publisher %s = %+v, want %+v", topic, got, want)
			}
			if got := snap.Subscribers[topic].Messages; got != 3 {
				t.Fatalf("subscriber %s messages = %d, want 3", topic, got)
			}
		}
	}

	// Topics() must be the sorted union.
	topics := r.Topics()
	if len(topics) != workers*topicsPerWorker {
		t.Fatalf("Topics() returned %d names, want %d", len(topics), workers*topicsPerWorker)
	}
	for i := 1; i < len(topics); i++ {
		if topics[i-1] >= topics[i] {
			t.Fatalf("Topics() not sorted at %d: %q >= %q", i, topics[i-1], topics[i])
		}
	}
}

// TestShardedRegistryLookupStability: a topic's instrument pointer is
// minted once and returned forever after, under concurrent first-touch
// races.
func TestShardedRegistryLookupStability(t *testing.T) {
	r := NewRegistry()
	const topic = "/stable/topic"
	const workers = 32
	ptrs := make([]*PubStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ptrs[w] = r.Publisher(topic)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ptrs[w] != ptrs[0] {
			t.Fatalf("worker %d got a different instrument pointer", w)
		}
	}
}

// TestShardedRegistrySnapshotDuringChurn runs snapshots concurrently
// with lookups and updates — the race detector turns any unguarded
// map access into a failure, and snapshots must always be internally
// consistent (no torn map reads).
func TestShardedRegistrySnapshotDuringChurn(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Publisher(fmt.Sprintf("/churn/w%d/t%d", w, i%100)).Messages.Inc()
				r.Subscriber(fmt.Sprintf("/churn/w%d/t%d", w, i%100)).Messages.Inc()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		snap := r.Snapshot()
		for k := range snap.Publishers {
			if k == "" {
				t.Fatal("empty topic key in snapshot")
			}
		}
		r.Topics()
	}
	close(stop)
	wg.Wait()
}
