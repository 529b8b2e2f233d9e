package chaostest

import (
	"os"
	"os/exec"
	"testing"
	"time"

	"rossf/internal/netsim"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/msgs/std_msgs"
)

// Environment protocol between TestRelaySIGKILLMidStream and its
// re-exec'd child helper.
const (
	relayKillChildEnv  = "ROSSF_CHAOS_RELAY_CHILD"
	relayKillMasterEnv = "ROSSF_CHAOS_RELAY_MASTER"
	relayKillTopic     = "/chaos/relay_kill"
)

// TestRelaySIGKILLMidStream is the crash-fault scenario for the relay
// tier: a child process relays the topic, a delegated subscriber
// attaches to it, and the relay is SIGKILLed mid-stream (no
// unregister, no teardown). The contracts:
//
//   - the master's liveness watchdog expires the dead relay's
//     registrations, so the graph reconciles without its cooperation,
//   - the orphaned subscriber retries over its backoff loop, sees the
//     relay leave the publisher set, reattaches to the origin, and the
//     stream resumes — never with a corrupt payload,
//   - a WithoutRelay subscriber on a direct origin connection loses
//     nothing at all throughout the crash,
//   - goroutine and message gauges return to baseline.
func TestRelaySIGKILLMidStream(t *testing.T) {
	if os.Getenv(relayKillChildEnv) != "" {
		t.Skip("child-only helper env set; not a parent run")
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	const size = 512

	checkGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()

	// Short liveness so the kill is detected promptly; every live
	// client heartbeats well inside the window.
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithClientExpiry(time.Second))
	if err != nil {
		t.Fatalf("NewMasterServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func(name string) *ros.RemoteMaster {
		rm, err := ros.DialMaster(srv.Addr(),
			ros.WithMasterRetry(fastRetry),
			ros.WithMasterHeartbeat(100*time.Millisecond),
			ros.WithMasterMetrics(reg))
		if err != nil {
			t.Fatalf("DialMaster(%s): %v", name, err)
		}
		t.Cleanup(func() { rm.Close() })
		return rm
	}

	pubNode, err := ros.NewNode("chaos_origin", ros.WithMaster(dial("origin")),
		ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pubNode.Close() })
	subNode, err := ros.NewNode("chaos_fan_sub", ros.WithMaster(dial("subs")),
		ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { subNode.Close() })

	pub, err := ros.Advertise[std_msgs.String](pubNode, relayKillTopic)
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	// Boot the relay child and wait for it to serve the topic.
	out := &syncBuffer{}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRelayKillChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		relayKillChildEnv+"=1",
		relayKillMasterEnv+"="+srv.Addr(),
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
	eventually(t, 15*time.Second, "relay attached upstream", func() bool {
		return out.Contains("RELAY_ACTIVE") && pub.NumSubscribers() >= 1
	})

	// Delegated subscriber (attaches to the relay) and a direct one
	// (WithoutRelay, the zero-loss control).
	delegated := newReceiver(size)
	states := &stateRecorder{}
	if _, err := ros.Subscribe(subNode, relayKillTopic, func(m *std_msgs.String) {
		delegated.accept(m.Data)
	}, ros.WithTransport(ros.TransportTCP), ros.WithRetry(fastRetry),
		ros.WithConnState(states.record)); err != nil {
		t.Fatalf("Subscribe(delegated): %v", err)
	}
	direct := newReceiver(size)
	if _, err := ros.Subscribe(subNode, relayKillTopic, func(m *std_msgs.String) {
		direct.accept(m.Data)
	}, ros.WithTransport(ros.TransportTCP), ros.WithRetry(fastRetry),
		ros.WithoutRelay()); err != nil {
		t.Fatalf("Subscribe(direct): %v", err)
	}

	// Origin serves the relay and the direct subscriber; the delegated
	// subscriber must NOT appear at the origin while the relay lives.
	eventually(t, 15*time.Second, "delegated topology", func() bool {
		return pub.NumSubscribers() == 2 && out.Contains("RELAY_SERVING")
	})

	stop := make(chan struct{})
	wait := pumpCounted(t, pub, size, stop, nil)
	eventually(t, 15*time.Second, "both subscribers receiving", func() bool {
		return delegated.distinct() >= 10 && direct.distinct() >= 10
	})

	// SIGKILL: the relay vanishes without unregistering.
	preKill := delegated.distinct()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing relay child: %v", err)
	}
	<-exited

	// The orphan must fail over to the origin and make fresh progress.
	eventually(t, 20*time.Second, "delegated subscriber failover", func() bool {
		return delegated.distinct() >= preKill+20
	})
	if !states.reconnectedAfterRetry() {
		t.Errorf("delegated subscriber never went Retrying -> Connected; states: %v", states.snapshot())
	}
	// Graph reconciliation: the dead relay's registrations expire, and
	// the origin ends up serving both survivors directly.
	eventually(t, 20*time.Second, "origin serving both survivors", func() bool {
		return pub.NumSubscribers() == 2
	})

	close(stop)
	published := wait()
	eventually(t, 15*time.Second, "direct subscriber catching up", func() bool {
		return direct.distinct() == published
	})
	if bad := delegated.corrupted(); len(bad) > 0 {
		t.Fatalf("delegated subscriber got %d corrupt payloads (first: %.60q)", len(bad), bad[0])
	}
	if bad := direct.corrupted(); len(bad) > 0 {
		t.Fatalf("direct subscriber got %d corrupt payloads (first: %.60q)", len(bad), bad[0])
	}
	if direct.distinct() != published {
		t.Errorf("direct subscriber lost traffic during the relay crash: %d/%d", direct.distinct(), published)
	}
}

// TestRelayKillChildHelper is the victim half of
// TestRelaySIGKILLMidStream: it relays the topic until the parent
// SIGKILLs it.
func TestRelayKillChildHelper(t *testing.T) {
	if os.Getenv(relayKillChildEnv) == "" {
		t.Skip("helper for TestRelaySIGKILLMidStream")
	}
	master, err := ros.DialMaster(os.Getenv(relayKillMasterEnv),
		ros.WithMasterHeartbeat(100*time.Millisecond))
	if err != nil {
		t.Fatalf("child: DialMaster: %v", err)
	}
	node, err := ros.NewNode("chaos_relay", ros.WithMaster(master))
	if err != nil {
		t.Fatalf("child: NewNode: %v", err)
	}
	var s std_msgs.String
	relay, err := ros.NewRelay(node, relayKillTopic,
		s.ROSMessageType(), s.ROSMD5Sum(), false)
	if err != nil {
		t.Fatalf("child: NewRelay: %v", err)
	}
	for relay.NumPublishers() < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	t.Log("RELAY_ACTIVE")
	for relay.NumSubscribers() < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	t.Log("RELAY_SERVING")
	time.Sleep(5 * time.Minute) // parent SIGKILLs long before this
}

// TestStalledShardMemberIsolated is the stall-fault scenario for the
// sharded egress: one subscriber in a shard pool wedges (its link
// stalls every read, so the kernel buffers fill and the publisher's
// vectored write blocks). The write deadline must cut the wedged
// member loose, its shard-mates must lose nothing (the shard queue
// absorbs the bounded stall), and the other shard must never notice.
func TestStalledShardMemberIsolated(t *testing.T) {
	const (
		size    = 64 << 10 // large frames fill the kernel buffers fast
		healthy = 4
	)

	checkGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	master := ros.NewLocalMaster()

	pubNode, err := ros.NewNode("stall_pub", ros.WithMaster(master), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pubNode.Close() })
	healthyNode, err := ros.NewNode("stall_healthy", ros.WithMaster(master), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthyNode.Close() })
	// The wedged subscriber reads through a permanently stalling link.
	fault := &netsim.Fault{StallProb: 1, Stall: 500 * time.Millisecond,
		Seed: 7, Grace: handshakeGrace}
	link := netsim.Link{Fault: fault}
	stallNode, err := ros.NewNode("stall_victim", ros.WithMaster(master),
		ros.WithDialer(link.Dialer()), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stallNode.Close() })

	pub, err := ros.Advertise[std_msgs.String](pubNode, "/chaos/stall_shard",
		ros.WithEgressShards(2), ros.WithQueueSize(256),
		ros.WithWriteTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	recs := make([]*receiver, healthy)
	for i := range recs {
		recs[i] = newReceiver(size)
		rec := recs[i]
		if _, err := ros.Subscribe(healthyNode, "/chaos/stall_shard", func(m *std_msgs.String) {
			rec.accept(m.Data)
		}, ros.WithTransport(ros.TransportTCP)); err != nil {
			t.Fatalf("Subscribe(healthy %d): %v", i, err)
		}
	}
	stalled := newReceiver(size)
	stallStates := &stateRecorder{}
	stallSub, err := ros.Subscribe(stallNode, "/chaos/stall_shard", func(m *std_msgs.String) {
		stalled.accept(m.Data)
	}, ros.WithTransport(ros.TransportTCP), ros.WithRetry(fastRetry),
		ros.WithConnState(stallStates.record))
	if err != nil {
		t.Fatalf("Subscribe(stalled): %v", err)
	}
	eventually(t, 10*time.Second, "all five subscribers attached", func() bool {
		return pub.NumSubscribers() == healthy+1
	})

	// Pump until the wedged member has been cut loose: the kernel
	// buffers fill, the write deadline fires, and the shard drops the
	// connection. The victim is then closed so it stays gone (a live
	// one would re-wedge on every reconnect; its own reader may not
	// notice the severed link for a long time — it is still draining a
	// full receive buffer through 500ms stalls).
	stop := make(chan struct{})
	wait := pumpCounted(t, pub, size, stop, nil)
	eventually(t, 30*time.Second, "write deadline cuts the wedged member loose", func() bool {
		return pub.NumSubscribers() == healthy
	})
	stallSub.Close()
	minDistinct := func() int {
		min := recs[0].distinct()
		for _, r := range recs[1:] {
			if d := r.distinct(); d < min {
				min = d
			}
		}
		return min
	}
	progressAtDrop := minDistinct()
	eventually(t, 15*time.Second, "healthy subscribers progress past the drop", func() bool {
		return minDistinct() >= progressAtDrop+50
	})
	close(stop)
	published := wait()
	eventually(t, 15*time.Second, "healthy subscribers catch up", func() bool {
		return minDistinct() == published
	})

	for i, r := range recs {
		if bad := r.corrupted(); len(bad) > 0 {
			t.Fatalf("healthy subscriber %d got %d corrupt payloads", i, len(bad))
		}
		if r.distinct() != published {
			t.Errorf("healthy subscriber %d lost traffic: %d/%d", i, r.distinct(), published)
		}
	}
	if fanout := reg.Snapshot().Egress.Fanout; fanout.ShardedConns != int64(healthy) {
		t.Errorf("sharded conns gauge = %d after the drop, want %d", fanout.ShardedConns, healthy)
	}
}
