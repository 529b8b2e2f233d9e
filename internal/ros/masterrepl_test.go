package ros_test

// Warm-standby replication and epoch-fenced failover tests (DESIGN
// §3.14): mirroring, standby write rejection, lease promotion with
// registration adoption, epoch fencing in both directions, and client
// candidate rotation. The chaostest package covers the SIGKILL matrix;
// here everything runs in-process for tight control over timing.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

// failoverLease is the replication lease used across these tests: short
// enough to keep promotions fast, long enough that a loaded CI box can
// keep a healthy feed alive (heartbeats run at lease/3).
const failoverLease = 300 * time.Millisecond

func newPrimary(t *testing.T, opts ...ros.MasterServerOption) *ros.MasterServer {
	t.Helper()
	srv, err := ros.NewMasterServer("127.0.0.1:0",
		append([]ros.MasterServerOption{
			ros.WithServerMetrics(obs.NewRegistry()),
			ros.WithPrimaryLease(failoverLease),
		}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func newStandby(t *testing.T, primaryAddr string, opts ...ros.MasterServerOption) *ros.MasterServer {
	t.Helper()
	srv, err := ros.NewMasterServer("127.0.0.1:0",
		append([]ros.MasterServerOption{
			ros.WithServerMetrics(obs.NewRegistry()),
			ros.WithPrimaryLease(failoverLease),
			ros.WithStandby(primaryAddr),
		}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// rawCall sends one raw protocol line and decodes one response line.
func rawCall(t *testing.T, conn net.Conn, req string) map[string]any {
	t.Helper()
	if _, err := fmt.Fprintln(conn, req); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("raw read: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("raw decode %q: %v", line, err)
	}
	return m
}

// TestStandbyMirrorsPrimaryAndRejectsWrites: registrations made on the
// primary appear in the standby's replica (readable through topics);
// writes against the standby are refused with a failover-triggering
// error until promotion.
func TestStandbyMirrorsPrimaryAndRejectsWrites(t *testing.T) {
	primary := newPrimary(t)
	standby := newStandby(t, primary.Addr())

	reg := obs.NewRegistry()
	m, err := ros.DialMaster(primary.Addr(), resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RegisterPublisher("repl/t", ros.PublisherInfo{
		NodeName: "n1", Addr: "x:1", TypeName: "t/R", MD5: "r"}); err != nil {
		t.Fatal(err)
	}
	unreg2, err := m.RegisterPublisher("repl/t2", ros.PublisherInfo{
		NodeName: "n2", Addr: "x:2", TypeName: "t/R", MD5: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterService("repl/svc", ros.ServiceInfo{
		NodeName: "n1", Addr: "x:9", ReqType: "t/Q", RespType: "t/A", MD5: "s"}); err != nil {
		t.Fatal(err)
	}

	// Reads on the standby come from the replica.
	reader, err := ros.DialMaster(standby.Addr(), resilientOpts(obs.NewRegistry())...)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	eventually(t, "standby mirrors registrations", func() bool {
		infos, err := reader.TopicsInfo()
		if err != nil {
			return false
		}
		pubs := 0
		for _, ti := range infos {
			pubs += ti.NumPublishers
		}
		if pubs != 2 {
			return false
		}
		_, found, err := reader.LookupService("repl/svc")
		return err == nil && found
	})

	// Unregistration replicates too (client-expiry events ride the same
	// op path: both run the connection's cancel sweep).
	unreg2()
	eventually(t, "standby applies unregistration", func() bool {
		infos, err := reader.TopicsInfo()
		if err != nil {
			return false
		}
		pubs := 0
		for _, ti := range infos {
			pubs += ti.NumPublishers
		}
		return pubs == 1
	})

	// Writes on the standby are refused as unavailable (the client
	// rotates candidates rather than dropping the registration).
	_, err = reader.RegisterPublisher("repl/w", ros.PublisherInfo{
		NodeName: "w", Addr: "x:3", TypeName: "t/R", MD5: "r"})
	if !errors.Is(err, ros.ErrMasterUnavailable) {
		t.Fatalf("standby write: got %v, want ErrMasterUnavailable", err)
	}
	if standby.IsPrimary() {
		t.Fatal("standby claims primary while its primary is alive")
	}
}

// TestStandbyPromotesAndClientFailsOver is the tentpole scenario in
// miniature: kill the primary under a registered+watching client whose
// candidate list names both masters; the standby must promote within
// the lease window, the client must fail over and adopt its
// registration in place (no watcher flicker), and the obs plane must
// record the failover and the new epoch.
func TestStandbyPromotesAndClientFailsOver(t *testing.T) {
	primary := newPrimary(t, ros.WithClientExpiry(2*time.Second))
	standby := newStandby(t, primary.Addr(), ros.WithClientExpiry(2*time.Second))

	reg := obs.NewRegistry()
	m, err := ros.DialMaster(primary.Addr()+","+standby.Addr(), resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.RegisterPublisher("fo/t", ros.PublisherInfo{
		NodeName: "keeper", Addr: "x:1", TypeName: "t/F", MD5: "f"}); err != nil {
		t.Fatal(err)
	}
	var pubCount atomic.Int64
	pubCount.Store(-1)
	var drops atomic.Int64
	if _, err := m.WatchPublishers("fo/t", "t/F", "f", func(pubs []ros.PublisherInfo) {
		if int64(len(pubs)) < pubCount.Load() {
			drops.Add(1)
		}
		pubCount.Store(int64(len(pubs)))
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "initial watch snapshot", func() bool { return pubCount.Load() == 1 })
	eventually(t, "standby synced before the kill", func() bool {
		return obsTopicPubs(t, standby) == 1
	})

	killed := time.Now()
	primary.Close()

	eventually(t, "standby promotes after the lease", func() bool { return standby.IsPrimary() })
	if elapsed := time.Since(killed); elapsed > 10*failoverLease {
		t.Errorf("promotion took %v, want within a few lease windows (%v)", elapsed, failoverLease)
	}
	if got := standby.Epoch(); got != 2 {
		t.Errorf("promoted epoch = %d, want 2", got)
	}

	// The client fails over, replays its journal, and the replicated
	// registration is adopted: the watcher must never see the publisher
	// vanish.
	eventually(t, "client reaches the promoted standby", func() bool {
		infos, err := m.TopicsInfo()
		if err != nil {
			return false
		}
		for _, ti := range infos {
			if ti.Name == "fo/t" && ti.NumPublishers == 1 {
				return true
			}
		}
		return false
	})
	// A read is answered on any session, including one whose replay the
	// standby refused just before it promoted; the client drops such a
	// session and dials again, and a write sent meanwhile fails fast.
	// So the answer above does not mean the client is through its
	// failover: wait on the client's own instrument, which counts a
	// replay once the whole log has landed on a master that took it.
	eventually(t, "replay counted by the client", func() bool {
		return reg.Snapshot().Graph.Replays >= 1
	})
	if pubCount.Load() != 1 {
		t.Errorf("watcher sees %d publishers after failover, want 1", pubCount.Load())
	}
	if drops.Load() != 0 {
		t.Errorf("watcher saw %d shrink notifications during failover, want 0 (adoption must be seamless)", drops.Load())
	}

	snap := reg.Snapshot()
	if snap.Graph.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", snap.Graph.Failovers)
	}
	if snap.Graph.Epoch != 2 {
		t.Errorf("client epoch gauge = %d, want 2", snap.Graph.Epoch)
	}

	// New writes land on the new primary.
	if _, err := m.RegisterPublisher("fo/t2", ros.PublisherInfo{
		NodeName: "late", Addr: "x:2", TypeName: "t/F", MD5: "f"}); err != nil {
		t.Fatalf("post-failover registration: %v", err)
	}
}

// obsTopicPubs counts publishers visible on srv's own LocalMaster via a
// throwaway read client.
func obsTopicPubs(t *testing.T, srv *ros.MasterServer) int {
	t.Helper()
	r, err := ros.DialMaster(srv.Addr(),
		ros.WithMasterHeartbeat(-1), ros.WithMasterMetrics(obs.NewRegistry()),
		ros.WithMasterRetry(ros.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		return -1
	}
	defer r.Close()
	infos, err := r.TopicsInfo()
	if err != nil {
		return -1
	}
	pubs := 0
	for _, ti := range infos {
		pubs += ti.NumPublishers
	}
	return pubs
}

// TestUnadoptedInheritedRegistrationsExpire: registrations whose owner
// never returns after a failover must not live forever on the promoted
// standby — they expire after the client-expiry window.
func TestUnadoptedInheritedRegistrationsExpire(t *testing.T) {
	primary := newPrimary(t, ros.WithClientExpiry(400*time.Millisecond))
	standby := newStandby(t, primary.Addr(), ros.WithClientExpiry(400*time.Millisecond))

	// This client knows only the primary: after the kill it cannot fail
	// over, so its registration must be swept as unadopted.
	m, err := ros.DialMaster(primary.Addr(), resilientOpts(obs.NewRegistry())...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RegisterPublisher("orphan/t", ros.PublisherInfo{
		NodeName: "gone", Addr: "x:1", TypeName: "t/O", MD5: "o"}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "standby synced", func() bool { return obsTopicPubs(t, standby) == 1 })

	primary.Close()
	eventually(t, "standby promotes", func() bool { return standby.IsPrimary() })
	eventually(t, "inherited registration visible right after promotion", func() bool {
		return obsTopicPubs(t, standby) == 1
	})
	eventually(t, "unadopted registration expires", func() bool {
		return obsTopicPubs(t, standby) == 0
	})
}

// TestStaleEpochFencesZombie: a master that sees a request carrying a
// higher epoch than its own must reject it with stale_epoch and fence
// itself permanently (every later request rejected too).
func TestStaleEpochFencesZombie(t *testing.T) {
	zombie := newPrimary(t) // boots at epoch 1
	conn, err := net.Dial("tcp", zombie.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp := rawCall(t, conn, `{"op":"topics","id":1,"epoch":7}`)
	if resp["op"] != "err" || resp["code"] != "stale_epoch" {
		t.Fatalf("higher-epoch request: got %v, want err/stale_epoch", resp)
	}
	if !zombie.Fenced() {
		t.Fatal("server not fenced after observing a higher epoch")
	}
	// Fencing latches: even an innocent request is now rejected.
	resp = rawCall(t, conn, `{"op":"topics","id":2}`)
	if resp["op"] != "err" || resp["code"] != "stale_epoch" {
		t.Fatalf("request to fenced server: got %v, want err/stale_epoch", resp)
	}
	if zombie.IsPrimary() {
		t.Fatal("fenced server still claims primary")
	}
}

// TestPromotedStandbyFencesRestartedPrimary: after a failover, an old
// primary that comes back on its old address with its stale epoch is
// actively probed and fenced by the new primary — no client needs to
// visit it first.
func TestPromotedStandbyFencesRestartedPrimary(t *testing.T) {
	primary := newPrimary(t)
	primaryAddr := primary.Addr()
	standby := newStandby(t, primaryAddr)
	eventually(t, "standby connected", func() bool { return standby.Epoch() == 1 })

	primary.Close()
	eventually(t, "standby promotes", func() bool { return standby.IsPrimary() })

	// The zombie: same address, stale epoch 1 (as a restart without the
	// epoch file would boot).
	var zombie *ros.MasterServer
	eventually(t, "old address rebindable", func() bool {
		var err error
		zombie, err = ros.NewMasterServer(primaryAddr,
			ros.WithServerMetrics(obs.NewRegistry()), ros.WithEpoch(1),
			ros.WithPrimaryLease(failoverLease))
		return err == nil
	})
	defer zombie.Close()

	eventually(t, "fencing probe reaches the zombie", func() bool { return zombie.Fenced() })
	if zombie.IsPrimary() {
		t.Fatal("restarted stale primary still accepts writes")
	}
	if !standby.IsPrimary() || standby.Fenced() {
		t.Fatal("promoted standby lost primaryship to the zombie")
	}
}

// TestClientSkipsDeadCandidateWarnOnce: the reconnect loop must rotate
// through candidates instead of redialing one dead address forever, and
// count every skip.
func TestClientSkipsDeadCandidateWarnOnce(t *testing.T) {
	// A dead candidate: reserve a port and close it so dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	live := newPrimary(t)
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(deadAddr+","+live.Addr(), resilientOpts(reg)...)
	if err != nil {
		t.Fatalf("dial with one dead candidate: %v", err)
	}
	defer m.Close()

	if _, err := m.TopicsInfo(); err != nil {
		t.Fatalf("call through live candidate: %v", err)
	}
	if got := reg.Snapshot().Graph.FailedCandidates; got < 1 {
		t.Errorf("failed_candidates = %d, want >= 1", got)
	}
}

// TestReplayConvergenceAcrossPromotion extends the PR 5 convergence
// property: a random op sequence runs against a shadow LocalMaster and
// a replicated pair; mid-sequence the primary is killed. The promoted
// standby must converge to exactly the shadow graph — journal replay
// plus adoption plus inherited expiry must lose nothing and resurrect
// nothing.
func TestReplayConvergenceAcrossPromotion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	primary := newPrimary(t, ros.WithClientExpiry(500*time.Millisecond))
	standby := newStandby(t, primary.Addr(), ros.WithClientExpiry(500*time.Millisecond))

	reg := obs.NewRegistry()
	m, err := ros.DialMaster(primary.Addr()+","+standby.Addr(), resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	shadow := ros.NewLocalMaster()

	topics := []string{"conv/a", "conv/b", "conv/c", "conv/d"}
	type liveReg struct{ real, shadow func() }
	var live []liveReg
	killAt := 20 + rng.Intn(20) // somewhere mid-sequence
	for op := 0; op < 60; op++ {
		if op == killAt {
			primary.Close()
			// No barrier here on purpose: the next registrations race the
			// promotion and must retry until the standby opens for writes.
		}
		switch r := rng.Intn(10); {
		case r < 6: // register a publisher on a random topic
			topic := topics[rng.Intn(len(topics))]
			info := ros.PublisherInfo{
				NodeName: fmt.Sprintf("n%d", op),
				Addr:     fmt.Sprintf("x:%d", op),
				TypeName: "t/P", MD5: "p",
			}
			var u func()
			eventually(t, fmt.Sprintf("op %d registers (surviving failover)", op), func() bool {
				var err error
				u, err = m.RegisterPublisher(topic, info)
				if errors.Is(err, ros.ErrMasterUnavailable) {
					return false // degraded or mid-rotation; retry
				}
				if err != nil {
					t.Fatalf("op %d register: %v", op, err)
				}
				return true
			})
			su, err := shadow.RegisterPublisher(topic, info)
			if err != nil {
				t.Fatalf("op %d shadow register: %v", op, err)
			}
			live = append(live, liveReg{real: u, shadow: su})
		default: // unregister a random live one
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			live[i].real()
			live[i].shadow()
			live = append(live[:i], live[i+1:]...)
		}
	}

	eventually(t, "standby promoted", func() bool { return standby.IsPrimary() })

	want := map[string]ros.TopicInfo{}
	for _, ti := range shadow.TopicsInfo() {
		if ti.NumPublishers > 0 {
			want[ti.Name] = ti
		}
	}
	eventually(t, "promoted standby graph equals shadow graph", func() bool {
		infos, err := m.TopicsInfo()
		if err != nil {
			return false
		}
		got := map[string]ros.TopicInfo{}
		for _, ti := range infos {
			if ti.NumPublishers > 0 {
				got[ti.Name] = ti
			}
		}
		if len(got) != len(want) {
			return false
		}
		for name, w := range want {
			g, ok := got[name]
			if !ok || g.TypeName != w.TypeName || g.MD5 != w.MD5 || g.NumPublishers != w.NumPublishers {
				return false
			}
		}
		return true
	})
	if got := reg.Snapshot().Graph.Failovers; got < 1 {
		t.Errorf("failovers = %d, want >= 1 after mid-sequence kill", got)
	}
}

// TestSplitMasterAddrsViaEnvShape: the comma-separated address contract
// used by ROS_MASTER_URI — blanks trimmed, empties dropped.
func TestMultiAddressDialShape(t *testing.T) {
	live := newPrimary(t)
	// Comma list with spaces and an empty segment must still connect.
	addr := " " + live.Addr() + " , ,"
	m, err := ros.DialMaster(addr, resilientOpts(obs.NewRegistry())...)
	if err != nil {
		t.Fatalf("dial %q: %v", addr, err)
	}
	defer m.Close()
	if _, err := m.TopicsInfo(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(addr, ",") {
		t.Fatal("test shape broken")
	}
}
