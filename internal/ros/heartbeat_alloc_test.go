package ros_test

import (
	"runtime"
	"testing"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
)

// TestMasterHeartbeatAllocFree pins the cost of an idle graph plane: a
// client pinging its master every 10 ms allocates nothing on either end
// — the ping and its ok are formatted into reused buffers and parsed
// without encoding/json, and every ping reuses one reply slot and one
// timer. Process-wide mallocs are read over 1 s windows (100 pings). On
// more than one P the scheduler starts OS threads to run the two ends in
// parallel, and each start allocates, so the test runs on one P; a
// background goroutine can still add a few objects to one window, so
// the best of three is taken, which a per-ping allocation would still
// show 100 times over. Under -race the detector's runtime allocates a
// few objects a second by itself, so there the bound is one per ping.
func TestMasterHeartbeatAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("idles for up to three seconds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	m, err := ros.DialMaster(srv.Addr(), ros.WithMasterHeartbeat(10*time.Millisecond), ros.WithMasterMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.TopicsInfo(); err != nil { // the first reply sets the echoed epoch
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // warm the buffers and the reply map

	best := ^uint64(0)
	var ms0, ms1 runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&ms0)
		time.Sleep(time.Second)
		runtime.ReadMemStats(&ms1)
		best = min(best, ms1.Mallocs-ms0.Mallocs)
		if best == 0 {
			break
		}
	}
	t.Logf("heap objects over 1 s of 10 ms heartbeats: %d", best)
	switch {
	case raceEnabled && best >= 100:
		t.Errorf("an idle heartbeating client and its master allocated %d heap objects in 1 s, want fewer than one per ping", best)
	case !raceEnabled && best != 0:
		t.Errorf("an idle heartbeating client and its master allocated %d heap objects in 1 s, want 0", best)
	}
	if got := reg.Snapshot().Graph.MasterReconnects; got != 0 {
		t.Errorf("heartbeating client reconnected %d times, want 0", got)
	}
}
