package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"rossf/internal/core"
	"rossf/internal/msg"
	"rossf/internal/ros"
	"rossf/internal/wire"
	"rossf/msgs/sensor_msgs"
)

// The side measurements time one module's public functions directly, on
// the workload's own message, in the traced run. Each returns a median
// in µs over a fixed iteration count chosen to cost well under a second.

// medianUs runs f n times and returns the median duration in µs.
func medianUs(n int, f func() error) (float64, error) {
	d := make([]int64, n)
	for i := range d {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d[i] = int64(time.Since(start))
	}
	slices.Sort(d)
	return us(quantile(d, 0.5)), nil
}

// sideIters scales the iteration count down for the large payload.
func sideIters(size int) int {
	if size > 1<<16 {
		return 60
	}
	return 2000
}

// measureSer times SerializeROS and DeserializeROS on the regular
// workload's message; wire bytes is the serialized size.
func measureSer(k *regularKind) (serUs, deserUs, wireBytes float64, err error) {
	if err := k.construct(1, msg.Time{Sec: 1}); err != nil {
		return 0, 0, 0, err
	}
	m := k.cur
	k.cur = nil
	n := sideIters(len(k.slab))
	var frame []byte
	serUs, err = medianUs(n, func() error {
		w := wire.NewWriter(m.SerializedSizeROS())
		err := m.SerializeROS(w)
		frame = w.Bytes()
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	deserUs, err = medianUs(n, func() error {
		var out sensor_msgs.Image
		return out.DeserializeROS(wire.NewReader(frame))
	})
	return serUs, deserUs, float64(len(frame)), err
}

// measureChecksum times wire.Checksum over a payload-sized buffer.
func measureChecksum(payload []byte) float64 {
	v, _ := medianUs(sideIters(len(payload)), func() error {
		wire.Checksum(payload)
		return nil
	})
	return v
}

// measureLoopbackFloor is what the kernel and the wire module alone cost
// at this payload size: a raw TCP pair on loopback, wire.WriteFrame on
// one end, wire.NewIngressReader on the other, one frame in flight,
// timed from before the write to the verified payload.
func measureLoopbackFloor(payload []byte) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	tx, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	rx, err := l.Accept()
	if err != nil {
		tx.Close()
		return 0, err
	}

	got := make(chan error, 1) // one frame in flight, so one verdict pending
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer rx.Close()
		ir := wire.NewIngressReader(rx, len(payload))
		defer ir.Release()
		big := make([]byte, len(payload))
		for {
			n, crc, err := ir.Next()
			if err != nil {
				return // tx closed
			}
			p, ok, err := ir.Payload(n)
			if err == nil && !ok {
				p = big[:n]
				err = ir.ReadFull(p)
			}
			if err == nil && wire.Checksum(p) != crc {
				err = errors.New("loopback frame failed its checksum")
			}
			got <- err
		}
	}()
	v, err := medianUs(sideIters(len(payload)), func() error {
		if err := wire.WriteFrame(tx, payload, wire.Checksum(payload)); err != nil {
			return err
		}
		return <-got
	})
	tx.Close()
	<-done
	return v, err
}

// measureShmAlloc times a store-backed allocate and release of the
// workload's arena.
func measureShmAlloc(mgr *core.Manager, capacity int) (float64, error) {
	return medianUs(sideIters(capacity), func() error {
		m, err := core.NewIn[sensor_msgs.ImageSF](mgr, capacity)
		if err != nil {
			return err
		}
		_, err = core.Release(m)
		return err
	})
}

// masterIters is how many register/notify round trips measureMaster
// times.
const masterIters = 100

// measureMaster times the graph plane through a MasterServer of its
// own: the RegisterPublisher call on one client, and registration ->
// watcher callback on another.
func measureMaster() (registerUs, notifyUs float64, err error) {
	srv, err := ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(nil))
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	var clients [2]*ros.RemoteMaster
	for i := range clients {
		if clients[i], err = ros.DialMaster(srv.Addr(), ros.WithMasterMetrics(nil)); err != nil {
			return 0, 0, err
		}
		defer clients[i].Close()
	}
	const n = masterIters
	const typ, md5 = "sensor_msgs/Image", "060021388200f6f0f447d0fcd9c64743"
	reg, notify := make([]int64, n), make([]int64, n)
	for i := range n {
		name := fmt.Sprintf("benchmark/master/%d", i)
		seen := make(chan time.Time, 1)
		cancel, err := clients[1].WatchPublishers(name, typ, md5, func(p []ros.PublisherInfo) {
			if len(p) > 0 {
				select {
				case seen <- time.Now():
				default:
				}
			}
		})
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		unregister, err := clients[0].RegisterPublisher(name,
			ros.PublisherInfo{NodeName: "bench", Addr: "127.0.0.1:1", TypeName: typ, MD5: md5})
		if err != nil {
			cancel()
			return 0, 0, err
		}
		reg[i] = int64(time.Since(start))
		select {
		case at := <-seen:
			notify[i] = int64(at.Sub(start))
		case <-time.After(10 * time.Second):
			err = errors.New("master watch was not notified within 10s")
		}
		unregister()
		cancel()
		if err != nil {
			return 0, 0, err
		}
	}
	slices.Sort(reg)
	slices.Sort(notify)
	return us(quantile(reg, 0.5)), us(quantile(notify, 0.5)), nil
}
