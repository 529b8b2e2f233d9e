package ros

import (
	"fmt"
	"net"
)

// DialDrain performs the subscriber half of the TCP handshake against a
// publisher endpoint and returns the raw connection carrying the frame
// stream (consume it with DrainFrames). It is the bench and tooling
// hook for standing up very large fan-outs: a full Subscriber costs a
// master watch, a dial goroutine, and a managed reader per connection,
// which at ten thousand subscribers measures the harness instead of the
// egress under test. DialDrain buys just the stream — no retry loop, no
// dispatch — so the reader side stays a negligible slice of the
// measurement.
//
// The caller owns the connection and must Close it. Frames arrive in
// the plain untagged framing: the drain offers no capability.
func DialDrain(addr, topic, typeName, md5, callerID string, sfm bool) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := exchange(conn, subscribeHeader(topic, typeName, md5, callerID, sfm, offer{})); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ros: drain handshake: %w", err)
	}
	return conn, nil
}

// DrainFrames consumes count checked frames from a drained connection
// through the receive pump, with per-frame CRC verification exactly as
// subscriptions get. It is the ingress bench's measurement loop: the
// real reader, none of the dispatch. progress (optional) is called with
// the running total after every verified frame, so a pacing publisher
// can run a credit window against it. Corrupt frames are dropped and do
// not count.
func DrainFrames(conn net.Conn, count int, progress func(delivered int)) error {
	rx := newPump(conn, maxFrameSize, nil)
	defer rx.release()
	d := drainDecoder{progress: progress}
	for d.delivered < count {
		if err := rx.step(&d); err != nil {
			return err
		}
	}
	return nil
}

type drainDecoder struct {
	delivered int
	progress  func(delivered int)
}

func (d *drainDecoder) decode(rx *pump, n int, crc uint32) (bool, error) {
	_, ok, err := rx.frame(n, crc)
	if ok && err == nil {
		d.delivered++
		if d.progress != nil {
			d.progress(d.delivered)
		}
	}
	return ok, err
}
