package ros

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
)

// This file proves the sharded egress fan-out (shard.go): delivery is
// byte-for-byte identical across a thousand subscribers, shards
// rebalance under churn without duplicating or dropping frames, the
// latch and SFM paths compose with sharding, and teardown leaks
// neither goroutines nor arenas. The tests run under -race (see the
// Makefile race target).

// shardImgSF is a local SFM type for the sharded typed-path tests
// (the external test package has its own; package ros needs one too).
type shardImgSF struct {
	Seq  uint64
	Data core.Vector[uint8]
}

func (*shardImgSF) ROSMessageType() string { return "shard_test/Img" }
func (*shardImgSF) ROSMD5Sum() string      { return "5haadd00000000000000000000000000" }
func (*shardImgSF) SFMMessage()            {}

// guardGoroutines fails the test if the goroutine count has not
// returned near its baseline after all cleanups ran.
func guardGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(15 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base+3 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d at start, %d after teardown", base, n)
	})
}

// withShardPolicy moves when the endpoint brings up its shard pool and
// how many shards it gets, so a test drives the pool with a handful of
// subscribers instead of autoShardThreshold of them.
func withShardPolicy(at, n int) PubOption {
	return func(c *pubConfig) { c.shards = shardPolicy{at: at, n: n} }
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func shardNode(t *testing.T, name string, m Master, reg *obs.Registry) *Node {
	t.Helper()
	n, err := NewNode(name, WithMaster(m), WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewNode(%s): %v", name, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// shardFrame builds the deterministic frame for seq: an 8-byte
// big-endian sequence number followed by size pattern bytes derived
// from it. Sizes alternate so runs mix coalesced (<=4KiB) and
// vectored (larger) encodings within one batch.
func shardFrame(seq uint64, size int) []byte {
	f := make([]byte, 8+size)
	binary.BigEndian.PutUint64(f, seq)
	for i := 0; i < size; i++ {
		f[8+i] = byte(seq) + byte(i)
	}
	return f
}

func shardFrameSize(seq uint64) int {
	if seq%4 == 3 {
		return 6000 // above coalesceThreshold: exercises the vectored span path
	}
	return 96
}

// shardRecorder collects one subscriber's delivered stream.
type shardRecorder struct {
	mu   sync.Mutex
	seqs []uint64
	err  string
}

func (r *shardRecorder) onRaw(m RawMessage) {
	seq := binary.BigEndian.Uint64(m.Frame)
	want := shardFrame(seq, shardFrameSize(seq))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(m.Frame) != len(want) {
		if r.err == "" {
			r.err = "frame length mismatch"
		}
		return
	}
	for i := range want {
		if m.Frame[i] != want[i] {
			if r.err == "" {
				r.err = "frame byte mismatch"
			}
			return
		}
	}
	r.seqs = append(r.seqs, seq)
}

func (r *shardRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs)
}

// last returns the newest sequence number delivered, if any.
func (r *shardRecorder) last() (seq uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seqs) == 0 {
		return 0, false
	}
	return r.seqs[len(r.seqs)-1], true
}

func (r *shardRecorder) snapshot() ([]uint64, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seqs...), r.err
}

// checkContiguous verifies a recorded stream is strictly increasing by
// one — no duplicates, no interior gaps.
func checkContiguous(t *testing.T, who string, seqs []uint64) {
	t.Helper()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Errorf("%s: stream not contiguous at %d: %d -> %d",
				who, i, seqs[i-1], seqs[i])
			return
		}
	}
}

// TestShardedFanoutThousandByteForByte is the headline property: one
// publisher with a shard pool from its first subscriber fanning out to a thousand TCP
// subscribers, every one of which must observe the identical
// sequence-numbered stream byte for byte, with all gauges returning to
// zero afterwards.
func TestShardedFanoutThousandByteForByte(t *testing.T) {
	nSubs, nMsgs := 1000, 24
	if testing.Short() {
		nSubs, nMsgs = 128, 16
	}
	guardGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	pub, err := AdvertiseRaw(pubNode, "fan/out", "shard_test/Raw", "a0"+"0011223344556677889900112233", false, true,
		withShardPolicy(0, 4), WithQueueSize(64))
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}

	recs := make([]*shardRecorder, nSubs)
	subs := make([]*Subscriber, nSubs)
	for i := range recs {
		recs[i] = &shardRecorder{}
		s, err := SubscribeRaw(subNode, "fan/out", "shard_test/Raw", "a0"+"0011223344556677889900112233", false, recs[i].onRaw)
		if err != nil {
			t.Fatalf("SubscribeRaw #%d: %v", i, err)
		}
		subs[i] = s
	}
	waitFor(t, 60*time.Second, "all subscribers connected", func() bool {
		return pub.NumSubscribers() == nSubs
	})

	ep := pub.ep
	if !ep.poolActive.Load() {
		t.Fatal("shard pool not active")
	}
	if got := len(ep.pool.shards); got != 4 {
		t.Fatalf("shard count = %d, want 4", got)
	}
	minN, maxN := nSubs, 0
	for _, s := range ep.pool.shards {
		n := s.memberCount()
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if maxN-minN > 1 {
		t.Errorf("join balancing off: shard member counts span [%d,%d]", minN, maxN)
	}

	// Publish with flow control: every subscriber must confirm frame i
	// before frame i+1 goes out, so queue overflow (legal QoS loss)
	// cannot occur and the byte-for-byte property is exact.
	for seq := uint64(0); seq < uint64(nMsgs); seq++ {
		if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
			t.Fatalf("PublishFrame(%d): %v", seq, err)
		}
		want := int(seq) + 1
		waitFor(t, 30*time.Second, "fan-out round", func() bool {
			for _, r := range recs {
				if r.count() < want {
					return false
				}
			}
			return true
		})
	}

	for i, r := range recs {
		seqs, errstr := r.snapshot()
		if errstr != "" {
			t.Fatalf("subscriber %d: %s", i, errstr)
		}
		if len(seqs) != nMsgs {
			t.Fatalf("subscriber %d received %d frames, want %d", i, len(seqs), nMsgs)
		}
		checkContiguous(t, "subscriber", seqs)
		if seqs[0] != 0 {
			t.Fatalf("subscriber %d started at seq %d", i, seqs[0])
		}
	}

	fanout := reg.Snapshot().Egress.Fanout
	if fanout.ActiveShards != 4 || fanout.ShardedConns != int64(nSubs) {
		t.Errorf("fanout gauges: shards=%d conns=%d, want 4/%d",
			fanout.ActiveShards, fanout.ShardedConns, nSubs)
	}
	if fanout.ShardDrops != 0 {
		t.Errorf("flow-controlled run recorded %d shard drops", fanout.ShardDrops)
	}

	for _, s := range subs {
		s.Close()
	}
	pub.Close()
	waitFor(t, 15*time.Second, "gauges to drain", func() bool {
		f := reg.Snapshot().Egress.Fanout
		return f.ActiveShards == 0 && f.ShardedConns == 0
	})
}

// TestShardRebalanceChurn drives joins, leaves, and forced shard
// migrations while a publish stream is live, then checks the
// no-duplicate / no-interior-gap property of every observed stream
// against the published sequence — the shadow log is the sequence
// numbering itself.
func TestShardRebalanceChurn(t *testing.T) {
	guardGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	const (
		nInit  = 40
		nJoin  = 12
		phaseA = 10  // flow-controlled warm-up frames
		total  = 400 // frames published at the least
	)

	pub, err := AdvertiseRaw(pubNode, "churn/out", "shard_test/Raw", "b0"+"0011223344556677889900112233", false, true,
		withShardPolicy(0, 4), WithQueueSize(256))
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}
	ep := pub.ep

	var mu sync.Mutex // guards recs/subs growth from the churn goroutine
	recs := make([]*shardRecorder, 0, nInit+nJoin)
	subs := make([]*Subscriber, 0, nInit+nJoin)
	addSub := func() {
		r := &shardRecorder{}
		s, err := SubscribeRaw(subNode, "churn/out", "shard_test/Raw", "b0"+"0011223344556677889900112233", false, r.onRaw)
		if err != nil {
			t.Errorf("SubscribeRaw: %v", err)
			return
		}
		mu.Lock()
		recs = append(recs, r)
		subs = append(subs, s)
		mu.Unlock()
	}
	for i := 0; i < nInit; i++ {
		addSub()
	}
	waitFor(t, 30*time.Second, "initial subscribers", func() bool {
		return pub.NumSubscribers() == nInit
	})

	for seq := uint64(0); seq < phaseA; seq++ {
		if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
			t.Fatalf("PublishFrame(%d): %v", seq, err)
		}
		waitFor(t, 10*time.Second, "warm-up round", func() bool {
			for _, r := range recs {
				if r.count() < int(seq)+1 {
					return false
				}
			}
			return true
		})
	}

	// Identify the members of the busiest shard by remote address and
	// close exactly those subscribers: a deterministic imbalance that
	// the rebalancer must repair while frames keep flowing.
	busiest := ep.pool.shards[0]
	for _, s := range ep.pool.shards[1:] {
		if s.memberCount() > busiest.memberCount() {
			busiest = s
		}
	}
	victims := make(map[string]bool)
	busiest.mu.Lock()
	for _, c := range busiest.members {
		victims[c.conn.RemoteAddr().String()] = true
	}
	busiest.mu.Unlock()

	// closeVictims marks the victims under the lock the publisher's pacing
	// reads them under, and closes them outside it.
	victimRecs := make(map[*shardRecorder]bool)
	closeVictims := func() int {
		var closing []*Subscriber
		mu.Lock()
		for i, s := range subs {
			s.mu.Lock()
			victim := false
			for _, c := range s.conns {
				c.mu.Lock()
				if c.conn != nil && victims[c.conn.LocalAddr().String()] {
					victim = true
				}
				c.mu.Unlock()
			}
			s.mu.Unlock()
			if victim {
				victimRecs[recs[i]] = true
				closing = append(closing, s)
			}
		}
		mu.Unlock()
		for _, s := range closing {
			s.Close() // proper close: no reconnect, stream simply ends
		}
		return len(closing)
	}

	// Live phase: publish continuously while the victim subscribers leave
	// and fresh ones join. Nothing in it leans on the clock. The publisher
	// holds while a stream it has already reached trails by a quarter of
	// the queue, so a slow runner stalls the publisher instead of
	// overflowing a shard; and it keeps publishing past `total` until the
	// churn is over and every joiner is attached, then sends one frame
	// more — the one frame every remaining subscriber is certain to be
	// due, whenever it joined.
	const window = 64
	trailing := func(seq uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			if victimRecs[r] {
				continue
			}
			if at, ok := r.last(); ok && at+window < seq {
				return true
			}
		}
		return false
	}
	var churned atomic.Bool
	var publishErr error
	var last uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		stalled := time.Now().Add(60 * time.Second)
		for seq, final := uint64(phaseA), false; ; seq++ {
			for trailing(seq) {
				if time.Now().After(stalled) {
					publishErr = fmt.Errorf("a subscriber stopped short of frame %d", seq)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
			if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
				publishErr = err
				return
			}
			if final {
				last = seq
				return
			}
			final = seq+2 >= total && churned.Load()
			time.Sleep(300 * time.Microsecond)
		}
	}()

	time.Sleep(5 * time.Millisecond)
	closedN := closeVictims()
	if closedN == 0 {
		t.Error("no victim subscribers matched the busiest shard's members")
	}
	// The joiners below would fill the hole the victims leave; hold them
	// back until the rebalancer has moved a connection into it, which it
	// does off the write failures the live stream runs into.
	waitFor(t, 60*time.Second, "victims detached", func() bool {
		return pub.NumSubscribers() == nInit-closedN
	})
	waitFor(t, 60*time.Second, "a rebalance into the emptied shard", func() bool {
		ep.maybeRebalance()
		return reg.Snapshot().Egress.Fanout.Rebalances > 0
	})
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < nJoin; i++ {
		time.Sleep(time.Duration(rnd.Intn(3)+1) * time.Millisecond)
		addSub()
	}
	waitFor(t, 60*time.Second, "joiners attached", func() bool {
		return pub.NumSubscribers() == nInit-closedN+nJoin
	})
	churned.Store(true)
	<-done
	if publishErr != nil {
		t.Fatalf("publish during churn: %v", publishErr)
	}

	// Everyone still attached (the victims left mid-stream) must
	// observe the tail of the stream.
	mu.Lock()
	activeRecs := append([]*shardRecorder(nil), recs...)
	mu.Unlock()
	waitFor(t, 60*time.Second, "tail delivery", func() bool {
		for _, r := range activeRecs {
			if victimRecs[r] {
				continue
			}
			if at, ok := r.last(); !ok || at != last {
				return false
			}
		}
		return true
	})

	// Force the rebalancer until the pool converges; moves ride the
	// source shards' queues while deliveries continue.
	waitFor(t, 20*time.Second, "shard balance", func() bool {
		ep.maybeRebalance()
		minN, maxN := 1<<30, 0
		for _, s := range ep.pool.shards {
			n := s.memberCount()
			if n < minN {
				minN = n
			}
			if n > maxN {
				maxN = n
			}
		}
		return maxN-minN <= 1
	})

	fanout := reg.Snapshot().Egress.Fanout
	if fanout.Rebalances == 0 {
		t.Error("rebalancer never moved a connection despite forced imbalance")
	}
	if fanout.ShardDrops != 0 {
		t.Errorf("paced churn run recorded %d shard drops", fanout.ShardDrops)
	}

	// The property: every stream — closed early, joined late, or
	// migrated between shards mid-run — is strictly contiguous.
	for i, r := range activeRecs {
		seqs, errstr := r.snapshot()
		if errstr != "" {
			t.Fatalf("subscriber %d: %s", i, errstr)
		}
		checkContiguous(t, "churned subscriber", seqs)
	}

	mu.Lock()
	for _, s := range subs {
		s.Close()
	}
	mu.Unlock()
	pub.Close()
	waitFor(t, 15*time.Second, "gauges to drain", func() bool {
		f := reg.Snapshot().Egress.Fanout
		return f.ActiveShards == 0 && f.ShardedConns == 0
	})
}

// TestShardedSFMLatchLateJoiner composes sharding with the typed SFM
// path and latching: early subscribers see the live stream, a late
// joiner receives the latched arena image through the targeted shard
// delivery, and no arena leaks.
func TestShardedSFMLatchLateJoiner(t *testing.T) {
	guardGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	pub, err := Advertise[shardImgSF](pubNode, "sfm/latched",
		withShardPolicy(0, 2), WithLatch())
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	type got struct {
		seq uint64
		sum uint64
	}
	mkSub := func() (*Subscriber, chan got) {
		ch := make(chan got, 16)
		s, err := Subscribe(subNode, "sfm/latched", func(img *shardImgSF) {
			var sum uint64
			for _, b := range img.Data.Slice() {
				sum += uint64(b)
			}
			ch <- got{seq: img.Seq, sum: sum}
		}, WithTransport(TransportTCP))
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		return s, ch
	}

	s1, ch1 := mkSub()
	defer s1.Close()
	s2, ch2 := mkSub()
	defer s2.Close()
	waitFor(t, 10*time.Second, "early subscribers", func() bool {
		return pub.NumSubscribers() == 2
	})
	if !pub.ep.poolActive.Load() {
		t.Fatal("a two-shard pool from the first subscriber did not activate")
	}

	publish := func(seq uint64, fill byte, n int) uint64 {
		img, err := core.NewWithCapacity[shardImgSF](1 << 16)
		if err != nil {
			t.Fatalf("core.NewWithCapacity: %v", err)
		}
		img.Seq = seq
		img.Data.MustResize(n)
		var sum uint64
		for i := range img.Data.Slice() {
			img.Data.Slice()[i] = fill + byte(i)
			sum += uint64(fill + byte(i))
		}
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		core.Release(img)
		return sum
	}

	wantSum := publish(1, 7, 5000)
	for i, ch := range []chan got{ch1, ch2} {
		select {
		case g := <-ch:
			if g.seq != 1 || g.sum != wantSum {
				t.Fatalf("subscriber %d got seq=%d sum=%d, want 1/%d", i, g.seq, g.sum, wantSum)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("subscriber %d: no live delivery", i)
		}
	}

	// Late joiner: must receive the latched message exactly once, then
	// the next live publish, in order.
	s3, ch3 := mkSub()
	defer s3.Close()
	select {
	case g := <-ch3:
		if g.seq != 1 || g.sum != wantSum {
			t.Fatalf("late joiner got seq=%d sum=%d, want latched 1/%d", g.seq, g.sum, wantSum)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late joiner never received the latched message")
	}

	want2 := publish(2, 31, 100)
	for i, ch := range []chan got{ch1, ch2, ch3} {
		select {
		case g := <-ch:
			if g.seq != 2 || g.sum != want2 {
				t.Fatalf("subscriber %d got seq=%d sum=%d, want 2/%d", i, g.seq, g.sum, want2)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("subscriber %d: no second delivery", i)
		}
	}
	for i, ch := range []chan got{ch1, ch2, ch3} {
		select {
		case g := <-ch:
			t.Fatalf("subscriber %d received an extra message: seq=%d", i, g.seq)
		default:
		}
	}
}

// TestShardAutoThreshold checks the sharding policy: the pool appears
// only once the connection count crosses autoShardThreshold, earlier
// connections keep their dedicated write loops, and both populations
// receive the same stream. A relay's own fan-out follows the same
// policy as any publisher's.
func TestShardAutoThreshold(t *testing.T) {
	t.Run("publisher", func(t *testing.T) { testShardAutoThreshold(t, false) })
	t.Run("relay", func(t *testing.T) { testShardAutoThreshold(t, true) })
}

func testShardAutoThreshold(t *testing.T, relayed bool) {
	guardGoroutines(t)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	const (
		nSubs              = autoShardThreshold + 8
		topic, typ, md5sum = "auto/out", "shard_test/Raw", "c0" + "0011223344556677889900112233"
	)

	pub, err := AdvertiseRaw(pubNode, topic, typ, md5sum, false, true)
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}
	defer pub.Close()
	// ep is the endpoint the subscribers attach to: the publisher's own,
	// or the relay's, which plain subscribers prefer to the origin.
	ep := pub.ep
	if relayed {
		relay, err := NewRelay(shardNode(t, "relay", m, reg), topic, typ, md5sum, false)
		if err != nil {
			t.Fatalf("NewRelay: %v", err)
		}
		defer relay.Close()
		waitFor(t, 10*time.Second, "relay attached upstream", func() bool {
			return relay.NumPublishers() == 1 && pub.NumSubscribers() == 1
		})
		ep = relay.pub.ep
	}

	recs := make([]*shardRecorder, 0, nSubs)
	subscribe := func(k int) {
		for i := 0; i < k; i++ {
			r := &shardRecorder{}
			s, err := SubscribeRaw(subNode, topic, typ, md5sum, false, r.onRaw)
			if err != nil {
				t.Fatalf("SubscribeRaw #%d: %v", len(recs), err)
			}
			t.Cleanup(s.Close)
			recs = append(recs, r)
		}
		waitFor(t, 30*time.Second, "subscribers connected", func() bool {
			return ep.numSubscribers() == len(recs)
		})
	}
	subscribe(autoShardThreshold)
	if ep.poolActive.Load() {
		t.Fatalf("pool up at %d subscribers, not past the threshold", autoShardThreshold)
	}
	subscribe(nSubs - autoShardThreshold)

	if !ep.poolActive.Load() {
		t.Fatal("auto mode never activated the pool above the threshold")
	}
	ep.mu.Lock()
	classic := len(ep.att.conns)
	ep.mu.Unlock()
	sharded := ep.pool.memberCount()
	if classic != autoShardThreshold || sharded != nSubs-autoShardThreshold {
		t.Fatalf("split = %d classic + %d sharded, want %d + %d",
			classic, sharded, autoShardThreshold, nSubs-autoShardThreshold)
	}

	const nMsgs = 8
	for seq := uint64(0); seq < nMsgs; seq++ {
		if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
			t.Fatalf("PublishFrame(%d): %v", seq, err)
		}
		waitFor(t, 10*time.Second, "mixed-mode round", func() bool {
			for _, r := range recs {
				if r.count() < int(seq)+1 {
					return false
				}
			}
			return true
		})
	}
	for i, r := range recs {
		seqs, errstr := r.snapshot()
		if errstr != "" {
			t.Fatalf("subscriber %d: %s", i, errstr)
		}
		if len(seqs) != nMsgs {
			t.Fatalf("subscriber %d received %d frames, want %d", i, len(seqs), nMsgs)
		}
		checkContiguous(t, "mixed-mode subscriber", seqs)
	}
}

// TestLiveShardRowsRender checks the /metrics side of a live pool: a
// publisher whose two-shard pool serves its TCP subscriber renders the
// fan-out section with one row per shard, every row carries its
// counters, and the rows add up to the frames written.
func TestLiveShardRowsRender(t *testing.T) {
	guardGoroutines(t)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode, err := NewNode("pub", WithMaster(m), WithMetrics(reg), WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer pubNode.Close()
	subNode := shardNode(t, "sub", m, reg)

	const topic, typ, md5sum = "rows/out", "shard_test/Raw", "f0" + "0011223344556677889900112233"
	pub, err := AdvertiseRaw(pubNode, topic, typ, md5sum, false, true, withShardPolicy(0, 2))
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}
	defer pub.Close()
	rec := &shardRecorder{}
	s, err := SubscribeRaw(subNode, topic, typ, md5sum, false, rec.onRaw)
	if err != nil {
		t.Fatalf("SubscribeRaw: %v", err)
	}
	defer s.Close()
	waitFor(t, 10*time.Second, "subscriber connected", func() bool { return pub.NumSubscribers() == 1 })
	if err := pub.PublishFrame(shardFrame(0, shardFrameSize(0))); err != nil {
		t.Fatalf("PublishFrame: %v", err)
	}
	waitFor(t, 10*time.Second, "delivery", func() bool { return rec.count() == 1 })

	resp, err := http.Get("http://" + pubNode.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var doc struct {
		Obs struct {
			Egress struct {
				Fanout struct {
					ActiveShards json.Number              `json:"active_shards"`
					Shards       []map[string]json.Number `json:"shards"`
				} `json:"fanout"`
			} `json:"egress"`
		} `json:"obs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	fanout := doc.Obs.Egress.Fanout
	if fanout.ActiveShards != "2" || len(fanout.Shards) != 2 {
		t.Fatalf("fanout section: active_shards=%s, %d shard rows; want 2 and 2",
			fanout.ActiveShards, len(fanout.Shards))
	}
	var frames int64
	for i, row := range fanout.Shards {
		for _, key := range []string{"conns", "frames", "writes", "bytes"} {
			if _, ok := row[key]; !ok {
				t.Errorf("shard row %d lacks %q: %v", i, key, row)
			}
		}
		n, _ := row["frames"].Int64()
		frames += n
	}
	if frames == 0 {
		t.Error("the shard rows count no frames after a delivery")
	}
}
