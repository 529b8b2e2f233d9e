package ros

import (
	"slices"
	"sync"
	"testing"
	"time"

	"rossf/internal/obs"
)

// TestWithdrawnLinkReportsRetryingBeforeSuccessor pins the link-state
// order of DESIGN §3.10: a subscriber attached to a relay that the
// master withdraws reports the relay link Retrying before the origin
// link it moves to reports Connected. Here nothing but the master's
// update sees the loss — the relay itself stays up — which is the order
// a relay SIGKILL takes when the master's push outruns the subscriber's
// own read of the dead link.
func TestWithdrawnLinkReportsRetryingBeforeSuccessor(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	const topic, typeName, md5 = "order/t", "shard_test/Raw", "e00011223344556677889900112233ff"

	originNode := shardNode(t, "origin", m, reg)
	origin, err := AdvertiseRaw(originNode, topic, typeName, md5, false, true)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	// The relay serves the topic from a node the shared master does not
	// know; the master lists it as a relay by hand, so one call
	// withdraws it.
	relayNode := shardNode(t, "relay", NewLocalMaster(), reg)
	relay, err := AdvertiseRaw(relayNode, topic, typeName, md5, false, true)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	withdraw, err := m.RegisterPublisher(topic, PublisherInfo{
		NodeName: "relay", Addr: relayNode.Addr(), TypeName: typeName, MD5: md5, Relay: true})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var states []string
	subNode := shardNode(t, "sub", m, reg)
	sub, err := SubscribeRaw(subNode, topic, typeName, md5, false, func(RawMessage) {},
		WithConnState(func(addr string, s ConnState) {
			mu.Lock()
			states = append(states, addr+" "+s.String())
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	seen := func(want string) bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.Contains(states, want)
	}
	relayUp, originUp := relayNode.Addr()+" connected", originNode.Addr()+" connected"
	waitFor(t, 10*time.Second, "the relay link", func() bool { return seen(relayUp) })
	withdraw()
	waitFor(t, 10*time.Second, "the origin link", func() bool { return seen(originUp) })

	mu.Lock()
	defer mu.Unlock()
	want := []string{relayUp, relayNode.Addr() + " retrying", originUp}
	if !slices.Equal(states, want) {
		t.Errorf("link states %q, want %q", states, want)
	}
}
