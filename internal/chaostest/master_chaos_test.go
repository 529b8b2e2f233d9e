package chaostest

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/netsim"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/msgs/std_msgs"
)

// resilientMasterOpts configures a RemoteMaster for chaos runs: fast
// reconnect, fast heartbeat, and a resync grace long enough that every
// peer client replays its registrations before removals are believed.
func resilientMasterOpts(reg *obs.Registry, dial ros.DialFunc) []ros.MasterOption {
	opts := []ros.MasterOption{
		ros.WithMasterRetry(fastRetry),
		ros.WithMasterHeartbeat(50 * time.Millisecond),
		ros.WithMasterResyncGrace(500 * time.Millisecond),
		ros.WithMasterMetrics(reg),
	}
	if dial != nil {
		opts = append(opts, ros.WithMasterDialer(dial))
	}
	return opts
}

// startMasterServer boots a master on addr ("127.0.0.1:0" or a fixed
// port when resurrecting), retrying briefly while a predecessor's port
// unwinds.
func startMasterServer(t *testing.T, addr string) *ros.MasterServer {
	t.Helper()
	var srv *ros.MasterServer
	var err error
	for i := 0; i < 100; i++ {
		srv, err = ros.NewMasterServer(addr, ros.WithServerMetrics(obs.NewRegistry()))
		if err == nil {
			return srv
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("start master on %s: %v", addr, err)
	return nil
}

// chaosDeadline bounds each wait of a scenario that CI runs under the
// race detector next to other packages' tests: it only has to be finite,
// so it is generous.
const chaosDeadline = 30 * time.Second

// pumpWindow is how far pumpCounted runs ahead of a receiver it is paced
// by: half the default publisher queue, so a stalled reader (a loaded
// CI runner under the race detector) makes the pump wait instead of
// making the queue drop.
const pumpWindow = 8

// pumpCounted publishes deterministic payloads until stop closes and
// reports how many were handed to Publish successfully — the zero-loss
// budget the subscriber must meet. With delivered set, the pump holds
// while it is pumpWindow messages ahead of that count: zero loss is then
// a property of the transport, not of the host keeping up with a
// millisecond clock.
func pumpCounted(t *testing.T, pub *ros.Publisher[std_msgs.String], size int, stop chan struct{}, delivered func() int) (wait func() int) {
	t.Helper()
	done := make(chan struct{})
	var published atomic.Int64
	go func() {
		defer close(done)
		for i := 0; ; time.Sleep(time.Millisecond) {
			select {
			case <-stop:
				return
			default:
			}
			if delivered != nil && i-delivered() >= pumpWindow {
				continue
			}
			if err := pub.Publish(&std_msgs.String{Data: payload(i, size)}); err != nil {
				t.Errorf("publish %d during master chaos: %v", i, err)
				return
			}
			published.Add(1)
			i++
		}
	}()
	return func() int { <-done; return int(published.Load()) }
}

// TestMasterRestartMidTraffic is the headline graph-plane chaos
// scenario: the master process is killed and restarted while a pub/sub
// flow is live. The contracts:
//
//   - the established TCP flow never stops — every message published
//     before, during, and after the outage is delivered (zero loss, no
//     data-plane reconnect),
//   - while the master is down both clients enter degraded mode and
//     graph calls fail fast with ErrMasterUnavailable (never hang),
//   - after the restart both clients replay their journals, the
//     restarted master's TopicsInfo converges to the pre-crash graph,
//     and a late-joining subscriber discovers the publisher through it.
func TestMasterRestartMidTraffic(t *testing.T) {
	checkGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)

	srv := startMasterServer(t, "127.0.0.1:0")
	addr := srv.Addr()
	alive := true
	defer func() {
		if alive {
			srv.Close()
		}
	}()

	reg := obs.NewRegistry()
	pubMaster, err := ros.DialMaster(addr, resilientMasterOpts(reg, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer pubMaster.Close()
	subMaster, err := ros.DialMaster(addr, resilientMasterOpts(reg, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer subMaster.Close()

	pubNode, err := ros.NewNode("chaos_master_pub", ros.WithMaster(pubMaster), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	subNode, err := ros.NewNode("chaos_master_sub", ros.WithMaster(subMaster), ros.WithMetrics(reg))
	if err != nil {
		pubNode.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		subNode.Close()
		pubNode.Close()
	})

	const topic = "/chaos/master_restart"
	const size = 256
	rec := newReceiver(size)
	sub, err := ros.Subscribe(subNode, topic, func(m *std_msgs.String) {
		rec.accept(m.Data)
	}, ros.WithTransport(ros.TransportTCP), ros.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := ros.Advertise[std_msgs.String](pubNode, topic)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	eventually(t, 10*time.Second, "discovery through TCP master",
		func() bool { return pub.NumSubscribers() == 1 })

	stop := make(chan struct{})
	wait := pumpCounted(t, pub, size, stop, rec.distinct)
	eventually(t, 10*time.Second, "steady flow before the crash",
		func() bool { return rec.distinct() >= 50 })

	// Kill the master under live traffic.
	srv.Close()
	alive = false
	eventually(t, 10*time.Second, "both clients degraded",
		func() bool { return reg.Snapshot().Graph.Degraded == 2 })

	// Degraded-mode graph calls fail fast with the typed error.
	start := time.Now()
	_, topErr := pubMaster.TopicsInfo()
	if !errors.Is(topErr, ros.ErrMasterUnavailable) {
		t.Fatalf("graph call during outage: got %v, want ErrMasterUnavailable", topErr)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("degraded call took %v, must fail fast", elapsed)
	}

	// The established flow keeps moving while the master is gone.
	before := rec.distinct()
	eventually(t, 10*time.Second, "traffic continuing without a master",
		func() bool { return rec.distinct() >= before+100 })

	// Resurrect the master at the same address; both clients must
	// reconnect and replay their journals.
	srv = startMasterServer(t, addr)
	alive = true
	eventually(t, 10*time.Second, "degraded mode exited",
		func() bool { return reg.Snapshot().Graph.Degraded == 0 })
	eventually(t, 10*time.Second, "graph converged on the restarted master", func() bool {
		infos, err := pubMaster.TopicsInfo()
		if err != nil {
			return false
		}
		for _, ti := range infos {
			if ti.Name == topic && ti.NumPublishers == 1 {
				return true
			}
		}
		return false
	})

	// A late-joining subscriber must converge through the restarted
	// master alone.
	lateReg := obs.NewRegistry()
	lateMaster, err := ros.DialMaster(addr, resilientMasterOpts(lateReg, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer lateMaster.Close()
	lateNode, err := ros.NewNode("chaos_master_late", ros.WithMaster(lateMaster), ros.WithMetrics(lateReg))
	if err != nil {
		t.Fatal(err)
	}
	defer lateNode.Close()
	lateRec := newReceiver(size)
	lateSub, err := ros.Subscribe(lateNode, topic, func(m *std_msgs.String) {
		lateRec.accept(m.Data)
	}, ros.WithTransport(ros.TransportTCP), ros.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	defer lateSub.Close()
	eventually(t, 10*time.Second, "late subscriber converging through restarted master",
		func() bool { return lateRec.distinct() >= 20 })

	close(stop)
	published := wait()
	eventually(t, 10*time.Second, "all published messages delivered",
		func() bool { return rec.distinct() == published })

	if bad := rec.corrupted(); len(bad) > 0 {
		t.Fatalf("corrupted payloads delivered: %d (first: %.60q)", len(bad), bad[0])
	}
	snap := reg.Snapshot()
	if s := snap.Subscribers[topic]; s.Drops != 0 || s.Reconnects != 0 {
		t.Errorf("established flow disturbed by master restart: drops=%d reconnects=%d, want 0/0",
			s.Drops, s.Reconnects)
	}
	if g := snap.Graph; g.MasterReconnects < 2 || g.Replays < 2 || g.Resync.Count < 2 {
		t.Errorf("graph instruments: reconnects=%d replays=%d resyncs=%d, all want >= 2",
			g.MasterReconnects, g.Replays, g.Resync.Count)
	}
	t.Logf("published=%d delivered=%d reconnects=%d replays=%d resync_p95=%v",
		published, rec.distinct(), snap.Graph.MasterReconnects, snap.Graph.Replays,
		snap.Graph.Resync.P95)
}

// TestMasterPartitionDegradedMode cuts only the node↔master links with
// a netsim partition (the data plane dials directly and stays healthy).
// Degraded mode must be entered while partitioned and exited cleanly on
// heal, without the subscriber ever tearing down its live publisher
// connection — the partition and replay must be invisible to the flow.
func TestMasterPartitionDegradedMode(t *testing.T) {
	checkGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)

	srv := startMasterServer(t, "127.0.0.1:0")
	defer srv.Close()

	fault := &netsim.Fault{}
	link := netsim.Link{Fault: fault} // no pacing; partition behavior only
	reg := obs.NewRegistry()
	pubMaster, err := ros.DialMaster(srv.Addr(), resilientMasterOpts(reg, link.Dialer())...)
	if err != nil {
		t.Fatal(err)
	}
	defer pubMaster.Close()
	subMaster, err := ros.DialMaster(srv.Addr(), resilientMasterOpts(reg, link.Dialer())...)
	if err != nil {
		t.Fatal(err)
	}
	defer subMaster.Close()

	pubNode, err := ros.NewNode("chaos_part_pub", ros.WithMaster(pubMaster), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	subNode, err := ros.NewNode("chaos_part_sub", ros.WithMaster(subMaster), ros.WithMetrics(reg))
	if err != nil {
		pubNode.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		subNode.Close()
		pubNode.Close()
	})

	const topic = "/chaos/master_partition"
	const size = 256
	rec := newReceiver(size)
	sub, err := ros.Subscribe(subNode, topic, func(m *std_msgs.String) {
		rec.accept(m.Data)
	}, ros.WithTransport(ros.TransportTCP), ros.WithRetry(fastRetry))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := ros.Advertise[std_msgs.String](pubNode, topic)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	eventually(t, chaosDeadline, "discovery before partition",
		func() bool { return pub.NumSubscribers() == 1 })

	stop := make(chan struct{})
	wait := pumpCounted(t, pub, size, stop, rec.distinct)
	eventually(t, chaosDeadline, "steady flow before partition",
		func() bool { return rec.distinct() >= 50 })

	fault.Partition()
	eventually(t, chaosDeadline, "degraded mode entered on partition",
		func() bool { return reg.Snapshot().Graph.Degraded == 2 })
	if _, err := subMaster.TopicsInfo(); !errors.Is(err, ros.ErrMasterUnavailable) {
		t.Fatalf("graph call during partition: got %v, want ErrMasterUnavailable", err)
	}
	before := rec.distinct()
	eventually(t, chaosDeadline, "data plane unaffected by the partition",
		func() bool { return rec.distinct() >= before+100 })

	fault.Heal()
	eventually(t, chaosDeadline, "degraded mode exited on heal",
		func() bool { return reg.Snapshot().Graph.Degraded == 0 })
	eventually(t, chaosDeadline, "graph intact after heal", func() bool {
		infos, err := subMaster.TopicsInfo()
		if err != nil {
			return false
		}
		for _, ti := range infos {
			if ti.Name == topic && ti.NumPublishers == 1 {
				return true
			}
		}
		return false
	})

	close(stop)
	published := wait()
	eventually(t, chaosDeadline, "all published messages delivered",
		func() bool { return rec.distinct() == published })

	if bad := rec.corrupted(); len(bad) > 0 {
		t.Fatalf("corrupted payloads delivered: %d (first: %.60q)", len(bad), bad[0])
	}
	snap := reg.Snapshot()
	if s := snap.Subscribers[topic]; s.Drops != 0 || s.Reconnects != 0 {
		t.Errorf("partition of the graph plane disturbed the data plane: drops=%d reconnects=%d, want 0/0",
			s.Drops, s.Reconnects)
	}
	if g := snap.Graph; g.MasterReconnects < 2 || g.Replays < 2 {
		t.Errorf("graph instruments: reconnects=%d replays=%d, want >= 2 each", g.MasterReconnects, g.Replays)
	}
}
