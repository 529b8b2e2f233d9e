package chaostest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/msgs/std_msgs"
)

// Environment protocol between TestMasterFailoverSIGKILL and its
// subprocess primary.
const (
	failoverChildEnv = "ROSSF_CHAOS_FAILOVER_CHILD"
	failoverLeaseEnv = "ROSSF_CHAOS_FAILOVER_LEASE"
)

// failoverLease keeps the scenario fast while leaving the replication
// heartbeat (lease/3) plenty of margin on a loaded CI box.
const failoverLease = 500 * time.Millisecond

// primaryAddrFrom extracts the subprocess primary's listen address from
// its output (it prints "PRIMARY_ADDR=<addr>" once bound).
func primaryAddrFrom(out *syncBuffer) string {
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "PRIMARY_ADDR="); ok {
			return rest
		}
	}
	return ""
}

// TestMasterFailoverSIGKILL is the headline robustness scenario for the
// warm-standby master pair (DESIGN §3.14). A subprocess primary is
// SIGKILLed — no drain, no dying handshake, replication feed severed
// mid-lease — while clients are registering and a pub/sub flow is live.
// The contracts:
//
//   - the in-process standby promotes within a few lease windows and
//     bumps the cluster epoch,
//   - zero registrations lost: every registration acked before or after
//     the kill is present on the promoted standby (journal replay covers
//     acks the dead primary never replicated),
//   - zero message loss on the established data flow — the data plane
//     never notices the graph-plane failover,
//   - a stale-epoch primary restarted on the old address is fenced by
//     the new primary's probe and never wins the clients back.
func TestMasterFailoverSIGKILL(t *testing.T) {
	checkGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)

	out := &syncBuffer{}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMasterFailoverKillChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		failoverChildEnv+"=1",
		failoverLeaseEnv+"="+failoverLease.String(),
	)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child primary: %v", err)
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
	eventually(t, 10*time.Second, "child primary bound", func() bool {
		return primaryAddrFrom(out) != ""
	})
	primaryAddr := primaryAddrFrom(out)

	standby, err := ros.NewMasterServer("127.0.0.1:0",
		ros.WithServerMetrics(obs.NewRegistry()),
		ros.WithStandby(primaryAddr),
		ros.WithPrimaryLease(failoverLease),
		ros.WithClientExpiry(2*time.Second))
	if err != nil {
		t.Fatalf("starting standby: %v", err)
	}
	defer standby.Close()

	// Both clients know both masters, primary first.
	candidates := primaryAddr + "," + standby.Addr()
	reg := obs.NewRegistry()
	pubMaster, err := ros.DialMaster(candidates, resilientMasterOpts(reg, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer pubMaster.Close()
	subMaster, err := ros.DialMaster(candidates, resilientMasterOpts(reg, nil)...)
	if err != nil {
		t.Fatal(err)
	}
	defer subMaster.Close()

	pubNode, err := ros.NewNode("chaos_fo_pub", ros.WithMaster(pubMaster), ros.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	subNode, err := ros.NewNode("chaos_fo_sub", ros.WithMaster(subMaster), ros.WithMetrics(reg))
	if err != nil {
		pubNode.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		subNode.Close()
		pubNode.Close()
	})

	const topic = "/chaos/failover"
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
	eventually(t, 10*time.Second, "discovery through the primary",
		func() bool { return pub.NumSubscribers() == 1 })

	stop := make(chan struct{})
	wait := pumpCounted(t, pub, size, stop, nil)

	// Live registration traffic: keep registering distinct publishers
	// throughout the kill and the promotion. Every acked registration
	// must survive the failover; rejections during the outage window are
	// retried, never dropped.
	regStop := make(chan struct{})
	regDone := make(chan struct{})
	var regMu sync.Mutex
	acked := map[string]func(){}
	go func() {
		defer close(regDone)
		for i := 0; ; i++ {
			select {
			case <-regStop:
				return
			default:
			}
			name := fmt.Sprintf("%s/reg/%03d", topic, i)
			u, err := pubMaster.RegisterPublisher(name, ros.PublisherInfo{
				NodeName: "chaos_fo_pub", Addr: "x:1", TypeName: "chaos/R", MD5: "r"})
			if errors.Is(err, ros.ErrMasterUnavailable) {
				i-- // degraded or mid-rotation: retry the same slot
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if err != nil {
				t.Errorf("registration %d during failover: %v", i, err)
				return
			}
			regMu.Lock()
			acked[name] = u
			regMu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	ackedCount := func() int {
		regMu.Lock()
		defer regMu.Unlock()
		return len(acked)
	}
	eventually(t, 10*time.Second, "registration traffic flowing",
		func() bool { return ackedCount() >= 10 && rec.distinct() >= 50 })

	// SIGKILL the primary: no drain, no replicated goodbye.
	killed := time.Now()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing primary: %v", err)
	}
	<-exited

	eventually(t, 10*time.Second, "standby promotes",
		func() bool { return standby.IsPrimary() })
	if elapsed := time.Since(killed); elapsed > 10*failoverLease {
		t.Errorf("promotion took %v, want within a few lease windows (%v)", elapsed, failoverLease)
	}
	if got := standby.Epoch(); got != 2 {
		t.Errorf("promoted epoch = %d, want 2", got)
	}

	// Registration traffic must resume against the new primary.
	preKill := ackedCount()
	eventually(t, 10*time.Second, "registrations flowing after failover",
		func() bool { return ackedCount() >= preKill+10 })
	close(regStop)
	<-regDone

	// Zero registrations lost: everything ever acked is on the promoted
	// standby (replicated before the kill, or journal-replayed after).
	eventually(t, 10*time.Second, "all acked registrations on the new primary", func() bool {
		infos, err := pubMaster.TopicsInfo()
		if err != nil {
			return false
		}
		have := map[string]bool{}
		for _, ti := range infos {
			if ti.NumPublishers > 0 {
				have[ti.Name] = true
			}
		}
		regMu.Lock()
		defer regMu.Unlock()
		for name := range acked {
			if !have[name] {
				return false
			}
		}
		return have[topic] // the data-plane publisher survived too
	})

	// The zombie: old primary restarted on its old address with the
	// stale epoch it would load from a cold start. The new primary's
	// fencing probe must latch it shut, and the clients must stay put.
	var zombie *ros.MasterServer
	eventually(t, 10*time.Second, "old address rebindable", func() bool {
		var err error
		zombie, err = ros.NewMasterServer(primaryAddr,
			ros.WithServerMetrics(obs.NewRegistry()),
			ros.WithEpoch(1), ros.WithPrimaryLease(failoverLease))
		return err == nil
	})
	defer zombie.Close()
	eventually(t, 10*time.Second, "zombie fenced by the new primary",
		func() bool { return zombie.Fenced() })
	if zombie.IsPrimary() {
		t.Error("stale-epoch zombie still accepts writes")
	}
	if standby.Fenced() || !standby.IsPrimary() {
		t.Error("promoted standby yielded to the zombie")
	}

	// Clients never went back: a graph call still lands on the new
	// primary and the epoch gauge never regressed.
	if _, err := pubMaster.TopicsInfo(); err != nil {
		t.Errorf("graph call after zombie restart: %v", err)
	}
	if got := reg.Snapshot().Graph.Epoch; got != 2 {
		t.Errorf("client epoch gauge = %d, want 2 (must not regress to the zombie's)", got)
	}

	// Zero message loss on the established flow, end to end.
	close(stop)
	published := wait()
	eventually(t, 10*time.Second, "all published messages delivered",
		func() bool { return rec.distinct() == published })
	if bad := rec.corrupted(); len(bad) > 0 {
		t.Fatalf("corrupted payloads delivered: %d (first: %.60q)", len(bad), bad[0])
	}
	snap := reg.Snapshot()
	if s := snap.Subscribers[topic]; s.Drops != 0 || s.Reconnects != 0 {
		t.Errorf("established flow disturbed by failover: drops=%d reconnects=%d, want 0/0",
			s.Drops, s.Reconnects)
	}
	if snap.Graph.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", snap.Graph.Failovers)
	}
	t.Logf("published=%d delivered=%d registrations=%d failovers=%d epoch=%d promotion<=%v",
		published, rec.distinct(), ackedCount(), snap.Graph.Failovers, snap.Graph.Epoch,
		time.Since(killed))
}

// TestMasterFailoverKillChildHelper is the victim half of
// TestMasterFailoverSIGKILL: it runs the primary master in a child
// process, prints its bound address, and serves until the parent
// SIGKILLs it.
func TestMasterFailoverKillChildHelper(t *testing.T) {
	if os.Getenv(failoverChildEnv) != "1" {
		t.Skip("helper for TestMasterFailoverSIGKILL")
	}
	lease, err := time.ParseDuration(os.Getenv(failoverLeaseEnv))
	if err != nil {
		t.Fatalf("bad lease env: %v", err)
	}
	srv, err := ros.NewMasterServer("127.0.0.1:0",
		ros.WithServerMetrics(obs.NewRegistry()),
		ros.WithPrimaryLease(lease))
	if err != nil {
		t.Fatalf("child primary: %v", err)
	}
	defer srv.Close()
	fmt.Printf("PRIMARY_ADDR=%s\n", srv.Addr())
	// Serve until SIGKILLed; the timer only bounds an orphaned run.
	time.Sleep(5 * time.Minute)
}
