package ros

import (
	"sync"

	"rossf/internal/core"
	"rossf/internal/obs"
)

// Relay is one topic's fan-out relay: it subscribes to the origin
// publisher(s), re-publishes every frame through its own egress, and
// registers itself in the master's graph with the Relay flag.
// Subscribers that see relay endpoints attach to exactly one relay
// instead of the origin (see PublisherInfo.Relay), so a fleet of relays
// multiplies a publisher's fan-out capacity: the origin serves
// the relays, each relay serves a slice of the subscriber population.
// cmd/rosrelay wraps this type in a standalone process.
//
// The relay is format-transparent — frames are forwarded byte-for-byte
// without decoding — but not order-transparent: an SFM frame whose
// declared byte order differs from the relay's native one is counted
// and dropped rather than forwarded under a wrong declaration (the
// relay advertises its own native order).
type Relay struct {
	pub   *RawPublisher
	sub   *Subscriber
	stats *obs.RelayStats // nil when the node's metrics are disabled
	sfm   bool

	closeOnce sync.Once
}

// asRelay marks the advertisement as a relay endpoint; internal to the
// relay tier (applications never set it directly).
func asRelay() PubOption {
	return func(c *pubConfig) { c.relay = true }
}

// NewRelay builds a relay for topic with the given binding. The relay's
// own advertisement fans out like any publisher's (its shard pool comes
// up with its subscriber count, shard.go); its upstream subscription
// uses WithoutRelay so chains of relays feed from the origin, never
// from each other.
func NewRelay(n *Node, topic, typeName, md5 string, sfm bool, opts ...PubOption) (*Relay, error) {
	opts = append(opts[:len(opts):len(opts)], asRelay()) // never into the caller's array
	pub, err := AdvertiseRaw(n, topic, typeName, md5, sfm, core.NativeLittleEndian(), opts...)
	if err != nil {
		return nil, err
	}
	r := &Relay{pub: pub, stats: n.metrics.Relay(), sfm: sfm}
	sub, err := SubscribeRaw(n, topic, typeName, md5, sfm, r.forward, WithoutRelay())
	if err != nil {
		pub.Close()
		return nil, err
	}
	r.sub = sub
	r.stats.Active.Add(1)
	return r, nil
}

// forward re-publishes one upstream frame. The callback's frame is the
// reader's scratch buffer, while PublishFrame queues slices for
// asynchronous egress, so the bytes are copied once here — the relay's
// unavoidable cost.
func (r *Relay) forward(m RawMessage) {
	st := r.stats
	st.FramesIn.Inc()
	st.BytesIn.Add(uint64(len(m.Frame)))
	if r.sfm && m.LittleEndian != core.NativeLittleEndian() {
		st.Mismatches.Inc()
		return
	}
	frame := append([]byte(nil), m.Frame...)
	if err := r.pub.PublishFrame(frame); err != nil {
		st.Drops.Inc()
		return
	}
	st.FramesOut.Inc()
}

// Topic returns the relayed topic.
func (r *Relay) Topic() string { return r.pub.Topic() }

// NumSubscribers returns the number of subscribers attached to the
// relay's own egress.
func (r *Relay) NumSubscribers() int { return r.pub.NumSubscribers() }

// NumPublishers returns the number of origin publishers the relay is
// attached to.
func (r *Relay) NumPublishers() int { return r.sub.NumPublishers() }

// Close withdraws the relay's advertisement first — so subscribers
// reconcile back to the origin (or another relay) — then detaches from
// the origin.
func (r *Relay) Close() {
	r.closeOnce.Do(func() {
		r.pub.Close()
		r.sub.Close()
		r.stats.Active.Add(-1)
	})
}
