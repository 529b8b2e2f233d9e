package ros

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rossf/internal/obs"
	"rossf/internal/wire"
)

// BenchmarkShardPoolVsLoops is the measurement behind autoShardThreshold:
// what one publish call costs (ns/op) at 8 and 100 TCP subscribers when
// the shard pool serves all of them, against one write loop each. The
// endpoint's own policy would use loops for 8 and both for 100 (64
// loops, the rest in the pool); the two extremes bracket it. wall-ns/op
// is the streaming time per message, which on a small host is the
// kernel's TCP ceiling rather than the middleware's.
//
//	go test ./internal/ros -run '^$' -bench ShardPoolVsLoops -benchtime 2000x
func BenchmarkShardPoolVsLoops(b *testing.B) {
	for _, subs := range []int{8, 100} {
		for _, size := range []int{4 << 10, 64 << 10} {
			for _, mode := range []struct {
				name string
				at   int
			}{{"pool", 0}, {"loops", math.MaxInt}} {
				b.Run(fmt.Sprintf("subs=%d/size=%dKiB/%s", subs, size>>10, mode.name), func(b *testing.B) {
					benchFanoutPublish(b, subs, size, withShardPolicy(mode.at, defaultShardCount))
				})
			}
		}
	}
}

// Credit window of the fan-out benchmark: the publisher runs at most
// this many messages ahead of the slowest drain, checked every stride
// publishes, so no queue (benchFanoutQueue deep) ever drops and every
// publish does the same work.
const (
	benchFanoutWindow = 256
	benchFanoutStride = 16
	benchFanoutQueue  = 512
)

func benchFanoutPublish(b *testing.B, subs, size int, policy PubOption) {
	const topic, typ, md5sum = "bench/fanout", "shard_test/Raw", "d1" + "0011223344556677889900112233"
	node, err := NewNode("bench_pub", WithMaster(NewLocalMaster()), WithMetrics(obs.NewRegistry()))
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	pub, err := AdvertiseRaw(node, topic, typ, md5sum, false, true, policy, WithQueueSize(benchFanoutQueue))
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	// Bare drains: each counts whole frames and copies nothing out, so
	// the readers stay a small slice of the host next to the egress.
	counts := make([]atomic.Int64, subs)
	conns := make([]net.Conn, subs)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := DialDrain(node.Addr(), topic, typ, md5sum, fmt.Sprintf("drain_%d", i), false)
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ir := wire.NewIngressReader(c, size)
			defer ir.Release()
			for {
				n, _, err := ir.Next()
				if err != nil || ir.Discard(n) != nil {
					return
				}
				counts[i].Add(1)
			}
		}()
	}
	for pub.NumSubscribers() < subs {
		time.Sleep(time.Millisecond)
	}
	slowest := func() int64 {
		least := counts[0].Load()
		for i := range counts[1:] {
			least = min(least, counts[i+1].Load())
		}
		return least
	}

	frame := make([]byte, size) // never written again: queued slices share it
	var publishing time.Duration
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if i%benchFanoutStride == 0 {
			for int64(i)-slowest() > benchFanoutWindow {
				time.Sleep(20 * time.Microsecond)
			}
		}
		t := time.Now()
		if err := pub.PublishFrame(frame); err != nil {
			b.Fatal(err)
		}
		publishing += time.Since(t)
	}
	for slowest() < int64(b.N) {
		time.Sleep(20 * time.Microsecond)
	}
	wall := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(publishing.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "wall-ns/op")
}
