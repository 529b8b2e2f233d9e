package ros_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

// Master protocol lines exactly as commit 1b26142 wrote them: the
// requests a RemoteMaster sends, the replies and pushes a MasterServer
// answers with, and the standby feed between two MasterServers. Every
// value in them is fixed by the exchange itself (ids count calls,
// handles count registrations on a connection, owners count
// connections at epoch 1).
var (
	goldenRequests = []string{
		`{"op":"regpub","id":1,"topic":"g/t","node":"n","addr":"127.0.0.1:1","type":"g/T","md5":"m","relay":true}`,
		`{"op":"regsrv","id":2,"topic":"g/s","node":"n","addr":"127.0.0.1:2","type":"g/Q","md5":"s","resp":"g/A","epoch":2}`,
		`{"op":"watch","id":3,"topic":"g/t","type":"g/T","md5":"m","epoch":2}`,
		`{"op":"unregpub","id":4,"handle":10,"epoch":2}`,
	}
	goldenPings = []string{
		`{"op":"ping","id":1}`,
		`{"op":"ping","id":2,"epoch":3}`,
	}
	// goldenReplies pairs each raw request with the lines it draws.
	goldenReplies = []struct{ req, want string }{
		{`{"op":"regpub","id":1,"topic":"g/t","node":"n","addr":"127.0.0.1:1","type":"g/T","md5":"m"}`,
			`{"op":"ok","id":1,"handle":1,"epoch":1}`},
		{`{"op":"regpub","id":2,"topic":"g/t","node":"n2","addr":"127.0.0.1:3","type":"g/U","md5":"u"}`,
			`{"op":"err","id":2,"msg":"ros: topic type mismatch: topic \"g/t\" is g/T (m), requested g/U (u)","code":"type_mismatch","epoch":1}`},
		{`{"op":"watch","id":3,"topic":"g/t","type":"g/T","md5":"m"}`,
			`{"op":"ok","id":3,"handle":3,"epoch":1}` + "\n" +
				`{"op":"pubs","handle":3,"pubs":[{"node":"n","addr":"127.0.0.1:1","type":"g/T","md5":"m"}],"epoch":1}`},
		{`{"op":"ping","id":4}`, `{"op":"ok","id":4,"epoch":1}`},
		{`{"op":"ping","id":5,"epoch":1}`, `{"op":"ok","id":5,"epoch":1}`},
		{`{"op":"regsrv","id":6,"topic":"g/s","node":"n","addr":"127.0.0.1:2","type":"g/Q","resp":"g/A","md5":"s"}`,
			`{"op":"ok","id":6,"handle":4,"epoch":1}`},
		{`{"op":"unregpub","id":7,"handle":1}`,
			`{"op":"pubs","handle":3,"epoch":1}` + "\n" + `{"op":"ok","id":7,"epoch":1}`},
	}
	goldenReplSync = `{"op":"repl_sync"}`
	goldenReplSnap = `{"op":"repl_snap","epoch":1,"seq":2,` +
		`"rpubs":[{"owner":4294967297,"handle":1,"topic":"g/t","node":"n","addr":"127.0.0.1:1","type":"g/T","md5":"m","relay":true}],` +
		`"rsrvs":[{"owner":4294967297,"handle":2,"topic":"g/s","node":"n","addr":"127.0.0.1:2","type":"g/Q","resp":"g/A","md5":"s"}]}`
	goldenReplOps = []string{
		`{"op":"repl_op","handle":3,"topic":"g/u","node":"n","addr":"127.0.0.1:4","type":"g/T","md5":"m","epoch":1,"seq":3,"kind":"regpub","owner":4294967297}`,
		`{"op":"repl_op","handle":1,"epoch":1,"seq":4,"kind":"unregpub","owner":4294967297}`,
	}
	goldenReplHB = `{"op":"repl_hb","epoch":1,"seq":4}`
)

// lineTap reads newline-terminated lines off one connection.
type lineTap struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialTap(t *testing.T, addr string) *lineTap {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &lineTap{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (lt *lineTap) send(line string) {
	lt.t.Helper()
	if _, err := fmt.Fprintln(lt.conn, line); err != nil {
		lt.t.Fatal(err)
	}
}

func (lt *lineTap) read() string {
	lt.t.Helper()
	lt.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := lt.r.ReadString('\n')
	if err != nil {
		lt.t.Fatalf("reading a master line: %v", err)
	}
	return strings.TrimSuffix(line, "\n")
}

// TestGoldenMasterLines is the wire-compatibility pin for the graph
// plane: a client, a server and a standby of this build write the same
// bytes as those of commit 1b26142, so either can talk to the other's
// build across an upgrade.
func TestGoldenMasterLines(t *testing.T) {
	t.Run("requests", func(t *testing.T) {
		// A fake master records each request line and acknowledges it
		// with handle 10×id at epoch 2, which later requests echo.
		got := make(chan string, 16)
		addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
			sc := bufio.NewScanner(conn)
			for id := 1; sc.Scan(); id++ {
				got <- sc.Text()
				fmt.Fprintf(conn, `{"op":"ok","id":%d,"handle":%d,"epoch":2}`+"\n", id, 10*id)
			}
		})
		m, err := ros.DialMaster(addr, ros.WithMasterHeartbeat(-1), ros.WithMasterMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		unreg, err := m.RegisterPublisher("g/t", ros.PublisherInfo{
			NodeName: "n", Addr: "127.0.0.1:1", TypeName: "g/T", MD5: "m", Relay: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RegisterService("g/s", ros.ServiceInfo{
			NodeName: "n", Addr: "127.0.0.1:2", ReqType: "g/Q", RespType: "g/A", MD5: "s"}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.WatchPublishers("g/t", "g/T", "m", func([]ros.PublisherInfo) {}); err != nil {
			t.Fatal(err)
		}
		unreg()
		for i, want := range goldenRequests {
			if line := <-got; line != want {
				t.Errorf("request %d differs from 1b26142's\n got %s\nwant %s", i, line, want)
			}
		}
	})

	t.Run("ping", func(t *testing.T) {
		got := make(chan string, 16)
		addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
			sc := bufio.NewScanner(conn)
			for id := 1; sc.Scan(); id++ {
				select {
				case got <- sc.Text():
				default:
				}
				fmt.Fprintf(conn, `{"op":"ok","id":%d,"epoch":3}`+"\n", id)
			}
		})
		m, err := ros.DialMaster(addr, ros.WithMasterHeartbeat(10*time.Millisecond), ros.WithMasterMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i, want := range goldenPings {
			if line := <-got; line != want {
				t.Errorf("ping %d differs from 1b26142's\n got %s\nwant %s", i, line, want)
			}
		}
	})

	t.Run("replies", func(t *testing.T) {
		srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := dialTap(t, srv.Addr())
		for _, g := range goldenReplies {
			c.send(g.req)
			for _, want := range strings.Split(g.want, "\n") {
				if line := c.read(); line != want {
					t.Errorf("reply to %s differs from 1b26142's\n got %s\nwant %s", g.req, line, want)
				}
			}
		}
	})

	t.Run("repl_sync", func(t *testing.T) {
		got := make(chan string, 1)
		addr := fakeMaster(t, func(t *testing.T, conn net.Conn) {
			if line, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
				select {
				case got <- strings.TrimSuffix(line, "\n"):
				default:
				}
			}
		})
		standby, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()),
			ros.WithStandby(addr), ros.WithPrimaryLease(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		defer standby.Close()
		if line := <-got; line != goldenReplSync {
			t.Errorf("repl_sync differs from 1b26142's\n got %s\nwant %s", line, goldenReplSync)
		}
	})

	t.Run("feed", func(t *testing.T) {
		srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()),
			ros.WithPrimaryLease(30*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client := dialTap(t, srv.Addr())
		client.send(`{"op":"regpub","id":1,"topic":"g/t","node":"n","addr":"127.0.0.1:1","type":"g/T","md5":"m","relay":true}`)
		client.read()
		client.send(`{"op":"regsrv","id":2,"topic":"g/s","node":"n","addr":"127.0.0.1:2","type":"g/Q","resp":"g/A","md5":"s"}`)
		client.read()

		follower := dialTap(t, srv.Addr())
		follower.send(goldenReplSync)
		if line := follower.read(); line != goldenReplSnap {
			t.Errorf("repl_snap differs from 1b26142's\n got %s\nwant %s", line, goldenReplSnap)
		}
		client.send(`{"op":"regpub","id":3,"topic":"g/u","node":"n","addr":"127.0.0.1:4","type":"g/T","md5":"m"}`)
		client.read()
		client.send(`{"op":"unregpub","id":4,"handle":1}`)
		client.read()
		// Heartbeats run on their own clock: skip any before the ops,
		// then pin the first one after them.
		next := func() string {
			for {
				if line := follower.read(); !strings.HasPrefix(line, `{"op":"repl_hb"`) {
					return line
				}
			}
		}
		for i, want := range goldenReplOps {
			if line := next(); line != want {
				t.Errorf("repl_op %d differs from 1b26142's\n got %s\nwant %s", i, line, want)
			}
		}
		if line := follower.read(); line != goldenReplHB {
			t.Errorf("repl_hb differs from 1b26142's\n got %s\nwant %s", line, goldenReplHB)
		}
	})
}
