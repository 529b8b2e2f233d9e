package ros_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

// fastMasterRetry keeps reconnect loops snappy in tests.
var fastMasterRetry = ros.RetryPolicy{
	InitialBackoff: 10 * time.Millisecond,
	MaxBackoff:     100 * time.Millisecond,
	Multiplier:     2,
	Jitter:         0.5,
}

// resilientOpts is the standard client configuration for restart tests:
// fast reconnect, fast heartbeat, short resync grace, private registry.
func resilientOpts(reg *obs.Registry) []ros.MasterOption {
	return []ros.MasterOption{
		ros.WithMasterRetry(fastMasterRetry),
		ros.WithMasterHeartbeat(50 * time.Millisecond),
		ros.WithMasterResyncGrace(150 * time.Millisecond),
		ros.WithMasterMetrics(reg),
	}
}

// lineScript is a scriptable fake master speaking the line protocol; it
// exercises client behavior real servers cannot produce (dead air,
// garbage, oversized lines, pushes for unknown handles).
type lineScript func(t *testing.T, conn net.Conn)

func fakeMaster(t *testing.T, script lineScript) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				script(t, conn)
			}()
		}
	}()
	return l.Addr().String()
}

// TestRemoteMasterPendingCallFailsFastOnEOF is the regression for the
// readLoop-exit bug: the server hangs up with a call in flight and the
// caller must get a typed error promptly rather than block on its reply
// channel forever (the old behavior until the 30s call timeout, or
// forever for later callers).
func TestRemoteMasterPendingCallFailsFastOnEOF(t *testing.T) {
	addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n') // swallow the request, reply with EOF
	})
	m, err := ros.DialMaster(addr,
		ros.WithMasterRetry(fastMasterRetry),
		ros.WithMasterHeartbeat(-1),
		ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	_, err = m.RegisterPublisher("t", ros.PublisherInfo{NodeName: "n", TypeName: "a/A", MD5: "1"})
	if !errors.Is(err, ros.ErrMasterUnavailable) {
		t.Fatalf("in-flight call on severed connection: got %v, want ErrMasterUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v to fail; must fail fast on connection loss", elapsed)
	}
}

// TestRemoteMasterPendingCallFailsOnOversizedLine: a response line over
// the 1 MiB scanner limit kills the read loop; in-flight calls must
// still fail typed instead of hanging.
func TestRemoteMasterPendingCallFailsOnOversizedLine(t *testing.T) {
	addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
		bufio.NewReader(conn).ReadString('\n')
		junk := strings.Repeat("x", 2<<20)
		conn.Write([]byte(junk + "\n"))
		time.Sleep(time.Second) // keep the conn open; the client must bail on its own
	})
	m, err := ros.DialMaster(addr,
		ros.WithMasterRetry(fastMasterRetry),
		ros.WithMasterHeartbeat(-1),
		ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	_, err = m.RegisterPublisher("t", ros.PublisherInfo{NodeName: "n", TypeName: "a/A", MD5: "1"})
	if !errors.Is(err, ros.ErrMasterUnavailable) {
		t.Fatalf("call blocked behind oversized line: got %v, want ErrMasterUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call took %v to fail", elapsed)
	}
}

// TestRemoteMasterErrCodePropagation: only type mismatches map to
// ErrTypeMismatch across the wire; other server errors (duplicate
// service) must arrive as plain errors, and never as
// ErrMasterUnavailable — the master answered.
func TestRemoteMasterErrCodePropagation(t *testing.T) {
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := ros.DialMaster(srv.Addr(), ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.RegisterService("svc", ros.ServiceInfo{NodeName: "a", Addr: "x:1"}); err != nil {
		t.Fatal(err)
	}
	_, err = m.RegisterService("svc", ros.ServiceInfo{NodeName: "b", Addr: "x:2"})
	if err == nil {
		t.Fatal("duplicate service registration accepted")
	}
	if errors.Is(err, ros.ErrTypeMismatch) {
		t.Errorf("duplicate-service error mislabeled as type mismatch: %v", err)
	}
	if errors.Is(err, ros.ErrMasterUnavailable) {
		t.Errorf("server rejection mislabeled as unavailable: %v", err)
	}

	if _, err := m.RegisterPublisher("tt", ros.PublisherInfo{TypeName: "a/A", MD5: "1"}); err != nil {
		t.Fatal(err)
	}
	_, err = m.WatchPublishers("tt", "b/B", "2", func([]ros.PublisherInfo) {})
	if !errors.Is(err, ros.ErrTypeMismatch) {
		t.Errorf("type mismatch lost its category over the wire: %v", err)
	}
}

// TestRemoteMasterUnknownWatchHandlePush: pushes for handles the client
// never registered (stale watches from a previous session, or a buggy
// server) must not wedge or crash the client.
func TestRemoteMasterUnknownWatchHandlePush(t *testing.T) {
	addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
		enc := json.NewEncoder(conn)
		for i := 0; i < 32; i++ {
			enc.Encode(map[string]any{"op": "pubs", "handle": 999 + i,
				"pubs": []map[string]string{{"node": "ghost", "addr": "x:1"}}})
		}
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			var req struct {
				ID int64 `json:"id"`
			}
			json.Unmarshal(sc.Bytes(), &req)
			enc.Encode(map[string]any{"op": "ok", "id": req.ID, "topics": []any{}})
		}
	})
	m, err := ros.DialMaster(addr,
		ros.WithMasterHeartbeat(-1),
		ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.TopicsInfo(); err != nil {
		t.Fatalf("client wedged by unknown-handle pushes: %v", err)
	}
}

// TestRemoteMasterMalformedResponseCounted: garbage lines from the
// server are counted in obs rather than silently dropped, and the
// session keeps working.
func TestRemoteMasterMalformedResponseCounted(t *testing.T) {
	addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
		conn.Write([]byte("this is not json\n{\"op\": \"also not\n"))
		enc := json.NewEncoder(conn)
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			var req struct {
				ID int64 `json:"id"`
			}
			json.Unmarshal(sc.Bytes(), &req)
			enc.Encode(map[string]any{"op": "ok", "id": req.ID})
		}
	})
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(addr, ros.WithMasterHeartbeat(-1), ros.WithMasterMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.TopicsInfo(); err != nil {
		t.Fatalf("session broken by malformed lines: %v", err)
	}
	if got := reg.Snapshot().Graph.MalformedLines; got != 2 {
		t.Errorf("malformed_lines = %d, want 2", got)
	}
}

// TestMasterServerMalformedRequestCounted is the server-side twin: a
// garbage request line is counted, answered with an err, and does not
// kill the connection.
func TestMasterServerMalformedRequestCounted(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage line\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to malformed line: %v", err)
	}
	if !strings.Contains(line, `"err"`) {
		t.Errorf("malformed line reply = %s, want err op", line)
	}
	// The connection must still serve valid requests afterwards.
	if _, err := conn.Write([]byte(`{"op":"ping","id":7}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err = r.ReadString('\n')
	if err != nil || !strings.Contains(line, `"ok"`) {
		t.Errorf("ping after malformed line: %q, %v", line, err)
	}
	if got := reg.Snapshot().Graph.MalformedLines; got != 1 {
		t.Errorf("malformed_lines = %d, want 1", got)
	}
}

// restartableMaster wraps a MasterServer on a fixed port so tests can
// kill and resurrect it at the same address.
type restartableMaster struct {
	t    *testing.T
	addr string
	srv  *ros.MasterServer
}

func newRestartableMaster(t *testing.T) *restartableMaster {
	t.Helper()
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rm := &restartableMaster{t: t, addr: srv.Addr(), srv: srv}
	t.Cleanup(func() {
		if rm.srv != nil {
			rm.srv.Close()
		}
	})
	return rm
}

func (rm *restartableMaster) kill() {
	rm.t.Helper()
	rm.srv.Close()
	rm.srv = nil
}

func (rm *restartableMaster) restart() {
	rm.t.Helper()
	var err error
	// The old port can linger briefly while prior connections unwind.
	for i := 0; i < 100; i++ {
		rm.srv, err = ros.NewMasterServer(rm.addr, ros.WithServerMetrics(obs.NewRegistry()))
		if err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	rm.t.Fatalf("restart master on %s: %v", rm.addr, err)
}

// TestRemoteMasterRestartReplay is the core tentpole check at the
// masternet level: registrations and watches survive a master restart
// via journal replay, degraded mode fails calls fast in between, and
// the watch never observes a spurious teardown of a publisher that was
// re-registered during resync.
func TestRemoteMasterRestartReplay(t *testing.T) {
	rm := newRestartableMaster(t)
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(rm.addr, resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.RegisterPublisher("rst/a", ros.PublisherInfo{
		NodeName: "n1", Addr: "127.0.0.1:101", TypeName: "t/A", MD5: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterPublisher("rst/b", ros.PublisherInfo{
		NodeName: "n1", Addr: "127.0.0.1:102", TypeName: "t/B", MD5: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterService("rst/svc", ros.ServiceInfo{
		NodeName: "n1", Addr: "127.0.0.1:103", ReqType: "t/Req", RespType: "t/Resp", MD5: "s"}); err != nil {
		t.Fatal(err)
	}

	var minPubs atomic.Int64
	minPubs.Store(-1) // no delivery yet
	if _, err := m.WatchPublishers("rst/a", "t/A", "a", func(pubs []ros.PublisherInfo) {
		n := int64(len(pubs))
		for {
			cur := minPubs.Load()
			if cur != -1 && cur <= n {
				return
			}
			if minPubs.CompareAndSwap(cur, n) {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "initial watch snapshot", func() bool { return minPubs.Load() == 1 })

	rm.kill()
	eventually(t, "degraded mode entered", func() bool {
		return reg.Snapshot().Graph.Degraded == 1
	})

	// Degraded: calls fail fast with the typed error, never hang.
	start := time.Now()
	if _, err := m.TopicsInfo(); !errors.Is(err, ros.ErrMasterUnavailable) {
		t.Fatalf("degraded TopicsInfo: got %v, want ErrMasterUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("degraded call took %v, must fail fast", elapsed)
	}

	rm.restart()
	eventually(t, "degraded mode exited", func() bool {
		return reg.Snapshot().Graph.Degraded == 0
	})
	// The master shows each replayed registration as soon as it lands,
	// before the client has finished its replay and counted it: wait on
	// the client's own instruments, not on the master's state.
	eventually(t, "replay counted by the client", func() bool {
		g := reg.Snapshot().Graph
		return g.Replays >= 1 && g.Resync.Count >= 1
	})
	eventually(t, "journal replayed", func() bool {
		infos, err := m.TopicsInfo()
		if err != nil {
			return false
		}
		pubs := map[string]int{}
		for _, ti := range infos {
			pubs[ti.Name] = ti.NumPublishers
		}
		return pubs["rst/a"] == 1 && pubs["rst/b"] == 1
	})
	eventually(t, "service replayed", func() bool {
		info, found, err := m.LookupService("rst/svc")
		return err == nil && found && info.Addr == "127.0.0.1:103"
	})

	g := reg.Snapshot().Graph
	if g.MasterReconnects < 1 || g.Replays < 1 || g.Resync.Count < 1 {
		t.Errorf("graph instruments after restart: reconnects=%d replays=%d resyncs=%d, all want >=1",
			g.MasterReconnects, g.Replays, g.Resync.Count)
	}
	// The watched publisher was replayed before the watch; the callback
	// must never have seen it vanish (resync grace holds removals back).
	if minPubs.Load() != 1 {
		t.Errorf("watch saw publisher set shrink to %d during restart; resync must not tear down live publishers", minPubs.Load())
	}
}

// TestRemoteMasterUnregisterDuringOutage: an unregister issued while
// the master is down must stick — replay must not resurrect the
// registration.
func TestRemoteMasterUnregisterDuringOutage(t *testing.T) {
	rm := newRestartableMaster(t)
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(rm.addr, resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	unregA, err := m.RegisterPublisher("out/a", ros.PublisherInfo{
		NodeName: "n", Addr: "x:1", TypeName: "t/A", MD5: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterPublisher("out/b", ros.PublisherInfo{
		NodeName: "n", Addr: "x:2", TypeName: "t/B", MD5: "b"}); err != nil {
		t.Fatal(err)
	}

	rm.kill()
	eventually(t, "degraded", func() bool { return reg.Snapshot().Graph.Degraded == 1 })
	unregA() // nothing to withdraw on the wire; must still leave the journal
	rm.restart()

	eventually(t, "replay lands b only", func() bool {
		infos, err := m.TopicsInfo()
		if err != nil {
			return false
		}
		pubs := map[string]int{}
		for _, ti := range infos {
			pubs[ti.Name] = ti.NumPublishers
		}
		return pubs["out/b"] == 1
	})
	infos, err := m.TopicsInfo()
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range infos {
		if ti.Name == "out/a" && ti.NumPublishers > 0 {
			t.Errorf("unregistered-while-degraded publisher resurrected by replay: %+v", ti)
		}
	}
}

// TestRemoteMasterGivesUpAfterMaxAttempts: a bounded retry budget, once
// exhausted, turns the session permanently unavailable (typed error,
// no hang, clean Close).
func TestRemoteMasterGivesUpAfterMaxAttempts(t *testing.T) {
	rm := newRestartableMaster(t)
	p := fastMasterRetry
	p.MaxAttempts = 2
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(rm.addr,
		ros.WithMasterRetry(p),
		ros.WithMasterHeartbeat(50*time.Millisecond),
		ros.WithMasterMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rm.kill()
	eventually(t, "gave up", func() bool {
		_, err := m.TopicsInfo()
		return errors.Is(err, ros.ErrMasterUnavailable) &&
			strings.Contains(err.Error(), "exhausted")
	})
}

// TestRemoteMasterConcurrentRegisterUnregisterAcrossRestarts hammers
// register/unregister from several goroutines while the master is
// killed and restarted, then checks the surviving state converges.
func TestRemoteMasterConcurrentRegisterUnregisterAcrossRestarts(t *testing.T) {
	rm := newRestartableMaster(t)
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(rm.addr, resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topic := fmt.Sprintf("conc/t%d", i)
			info := ros.PublisherInfo{NodeName: fmt.Sprintf("n%d", i),
				Addr: fmt.Sprintf("x:%d", i), TypeName: "t/C", MD5: "c"}
			var unreg func()
			for {
				// Register a fresh instance, drop the previous one; calls
				// fail with ErrMasterUnavailable during outages — retry.
				u, err := m.RegisterPublisher(topic, info)
				if err == nil {
					if unreg != nil {
						unreg()
					}
					unreg = u
				} else if !errors.Is(err, ros.ErrMasterUnavailable) {
					t.Errorf("worker %d: unexpected register error: %v", i, err)
					return
				}
				select {
				case <-stop:
					return // leave exactly one registration standing
				case <-time.After(5 * time.Millisecond):
				}
			}
		}(i)
	}

	for r := 0; r < 3; r++ {
		time.Sleep(100 * time.Millisecond)
		rm.kill()
		time.Sleep(100 * time.Millisecond)
		rm.restart()
		eventually(t, "reconnected after restart", func() bool {
			_, err := m.TopicsInfo()
			return err == nil
		})
	}
	close(stop)
	wg.Wait()

	eventually(t, "registrations converge to one per worker", func() bool {
		infos, err := m.TopicsInfo()
		if err != nil {
			return false
		}
		pubs := map[string]int{}
		for _, ti := range infos {
			pubs[ti.Name] = ti.NumPublishers
		}
		for i := 0; i < workers; i++ {
			if pubs[fmt.Sprintf("conc/t%d", i)] != 1 {
				return false
			}
		}
		return true
	})
}

// TestRemoteMasterReplayConvergenceProperty drives a seeded random
// schedule of register/unregister/restart operations against both a
// RemoteMaster (with restarts) and a shadow LocalMaster (without), and
// asserts the replayed graph converges to exactly the shadow's
// populated topics — restarts must be invisible to desired state.
func TestRemoteMasterReplayConvergenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rm := newRestartableMaster(t)
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(rm.addr, resilientOpts(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	shadow := ros.NewLocalMaster()

	topics := []string{"prop/a", "prop/b", "prop/c", "prop/d"}
	type liveReg struct{ real, shadow func() }
	var live []liveReg
	restarts := 0
	for op := 0; op < 60; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // register a publisher on a random topic
			topic := topics[rng.Intn(len(topics))]
			info := ros.PublisherInfo{
				NodeName: fmt.Sprintf("n%d", op),
				Addr:     fmt.Sprintf("x:%d", op),
				TypeName: "t/P", MD5: "p",
			}
			u, err := m.RegisterPublisher(topic, info)
			if err != nil {
				t.Fatalf("op %d register: %v", op, err)
			}
			su, err := shadow.RegisterPublisher(topic, info)
			if err != nil {
				t.Fatalf("op %d shadow register: %v", op, err)
			}
			live = append(live, liveReg{real: u, shadow: su})
		case r < 8: // unregister a random live one
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			live[i].real()
			live[i].shadow()
			live = append(live[:i], live[i+1:]...)
		default: // restart the master
			if restarts >= 3 {
				continue
			}
			restarts++
			rm.kill()
			rm.restart()
			eventually(t, "reconnected", func() bool {
				_, err := m.TopicsInfo()
				return err == nil
			})
		}
	}

	want := map[string]ros.TopicInfo{}
	for _, ti := range shadow.TopicsInfo() {
		if ti.NumPublishers > 0 { // a restarted master legitimately forgets empty topics
			want[ti.Name] = ti
		}
	}
	eventually(t, "replayed graph equals shadow graph", func() bool {
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
}

// TestMasterServerExpiresGhostClients: a client that stops talking (no
// requests, no pings — a SIGKILLed process whose conn lingers) is
// expired and its registrations vanish for every watcher.
func TestMasterServerExpiresGhostClients(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ros.NewMasterServer("127.0.0.1:0",
		ros.WithServerMetrics(reg), ros.WithClientExpiry(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The ghost: a raw connection that registers and goes silent.
	ghost, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Close()
	fmt.Fprintf(ghost, `{"op":"regpub","id":1,"topic":"gh/t","node":"ghost","addr":"x:1","type":"t/G","md5":"g"}`+"\n")
	if line, err := bufio.NewReader(ghost).ReadString('\n'); err != nil || !strings.Contains(line, `"ok"`) {
		t.Fatalf("ghost register: %q, %v", line, err)
	}

	// The watcher heartbeats fast enough to outlive the expiry window.
	watcher, err := ros.DialMaster(srv.Addr(),
		ros.WithMasterHeartbeat(50*time.Millisecond),
		ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	var pubCount atomic.Int64
	pubCount.Store(-1)
	if _, err := watcher.WatchPublishers("gh/t", "t/G", "g", func(pubs []ros.PublisherInfo) {
		pubCount.Store(int64(len(pubs)))
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "ghost visible", func() bool { return pubCount.Load() == 1 })
	eventually(t, "ghost expired", func() bool { return pubCount.Load() == 0 })
	if got := reg.Snapshot().Graph.GhostExpiries; got < 1 {
		t.Errorf("ghost_expiries = %d, want >= 1", got)
	}
}

// TestRemoteMasterHeartbeatKeepsIdleClientAlive: an idle client that
// pings must NOT be expired, and must not have needed a reconnect.
func TestRemoteMasterHeartbeatKeepsIdleClientAlive(t *testing.T) {
	srv, err := ros.NewMasterServer("127.0.0.1:0",
		ros.WithServerMetrics(obs.NewRegistry()), ros.WithClientExpiry(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	m, err := ros.DialMaster(srv.Addr(),
		ros.WithMasterHeartbeat(50*time.Millisecond), ros.WithMasterMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RegisterPublisher("hb/t", ros.PublisherInfo{
		NodeName: "n", Addr: "x:1", TypeName: "t/H", MD5: "h"}); err != nil {
		t.Fatal(err)
	}

	time.Sleep(time.Second) // several expiry windows of request silence
	infos, err := m.TopicsInfo()
	if err != nil {
		t.Fatalf("heartbeating client expired: %v", err)
	}
	found := false
	for _, ti := range infos {
		if ti.Name == "hb/t" && ti.NumPublishers == 1 {
			found = true
		}
	}
	if !found {
		t.Error("registration of heartbeating idle client was expired")
	}
	if got := reg.Snapshot().Graph.MasterReconnects; got != 0 {
		t.Errorf("idle heartbeating client reconnected %d times, want 0", got)
	}
}

// TestDialMasterWithTimeout: the initial dial retries with backoff
// until the master appears (CLI hardening), and fails immediately with
// a zero timeout.
func TestDialMasterWithTimeout(t *testing.T) {
	// Reserve an address, then release it so the first dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	if _, err := ros.DialMasterWithTimeout(addr, 0, ros.WithMasterMetrics(obs.NewRegistry())); err == nil {
		t.Fatal("zero-timeout dial to dead address succeeded")
	}

	go func() {
		time.Sleep(150 * time.Millisecond)
		srv, err := ros.NewMasterServer(addr, ros.WithServerMetrics(obs.NewRegistry()))
		if err == nil {
			t.Cleanup(func() { srv.Close() })
		}
	}()
	m, err := ros.DialMasterWithTimeout(addr, 5*time.Second, ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatalf("dial with timeout did not wait for the master: %v", err)
	}
	m.Close()
}

// TestMasterServerShutdownDrains: Shutdown waits for clients to leave
// within the grace, then severs stragglers and returns.
func TestMasterServerShutdownDrains(t *testing.T) {
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ros.DialMaster(srv.Addr(),
		ros.WithMasterRetry(ros.RetryPolicy{MaxAttempts: 1}),
		ros.WithMasterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	done := make(chan struct{})
	go func() {
		srv.Shutdown(500 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return within grace + slack")
	}
}
