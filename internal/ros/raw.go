package ros

import (
	"errors"

	"rossf/internal/core"
)

// RawMessage is one frame delivered to a raw subscriber, with the
// publisher-declared wire regime.
type RawMessage struct {
	// Frame is the wire payload: a ROS1 serialization or an SFM
	// whole-message image, depending on Format. It is only valid during
	// the callback.
	Frame []byte
	// Format is "ros1" or "sfm".
	Format string
	// LittleEndian is the publisher's byte order (meaningful for SFM
	// frames).
	LittleEndian bool
}

// SubscribeRaw attaches to a topic without compiled-in message types,
// delivering raw frames — the mechanism behind introspection tools like
// cmd/rostopic and the relay tier. typeName/md5 must match the topic
// binding (obtain them from the master's TopicsInfo); sfm selects which
// wire regime to negotiate. Raw subscriptions always use the TCP
// transport; of the options, WithRetry, WithConnState and WithoutRelay
// apply (transport/queue/manager options are typed-path concerns).
func SubscribeRaw(n *Node, topic, typeName, md5 string, sfm bool,
	cb func(RawMessage), opts ...SubOption) (*Subscriber, error) {
	cfg := subConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.fields) > 0 && !sfm {
		return nil, errors.New("ros: WithFields requires the sfm wire regime")
	}
	cfg.transport, cfg.queueSize = TransportTCP, 0
	s := newSubscriber(n, topic, typeName, md5, sfm, &cfg)
	return s.start(nil, rawDecoders(s, cb))
}

// RawPublisher publishes pre-encoded frames under an explicit topic
// binding — the mechanism behind rosbag playback. The frames must be in
// the declared format; littleEndian declares the byte order of SFM
// frames (e.g. the order they were recorded in).
type RawPublisher struct {
	ep *pubEndpoint
}

// AdvertiseRaw declares a topic with explicit metadata and returns a
// frame-level publisher.
func AdvertiseRaw(n *Node, topic, typeName, md5 string, sfm, littleEndian bool,
	opts ...PubOption) (*RawPublisher, error) {
	ep, err := newPubEndpoint(n, topic, typeName, md5, sfm, nativeEndianName(littleEndian), opts)
	if err != nil {
		return nil, err
	}
	return &RawPublisher{ep: ep}, nil
}

// Topic returns the advertised topic.
func (p *RawPublisher) Topic() string { return p.ep.topic }

// NumSubscribers returns the number of attached subscribers.
func (p *RawPublisher) NumSubscribers() int { return p.ep.numSubscribers() }

// Close withdraws the advertisement.
func (p *RawPublisher) Close() { p.ep.close() }

// PublishFrame fans a pre-encoded frame out to all subscribers. The
// frame is not retained after the last write completes; callers may
// reuse it only after Close.
func (p *RawPublisher) PublishFrame(frame []byte) error {
	if p.ep.isClosed() {
		return errors.New("ros: publisher closed")
	}
	// The latch copy is built first and installed atomically with the
	// fan-out snapshot (same latched-publish race as the typed path).
	var l *latchedMsg
	if p.ep.latch {
		cp := append([]byte(nil), frame...)
		l = &latchedMsg{frame: cp}
	}
	p.ep.fanout(frame, nil, core.Ref{}, l)
	return nil
}

// rawDecoders pumps frames to the callback without decoding them, so a
// raw subscription has no use for shared memory and never offers it. On
// SFM topics it can take sparse frames (rostopic echo/bw -fields): each
// masked payload is materialized into a scratch full-size image and
// delivered as a normal SFM frame.
func rawDecoders(s *Subscriber, cb func(RawMessage)) decoderSet {
	link := func(reply map[string]string) *rawConn {
		return &rawConn{sub: s, cb: cb, format: reply[hdrFormat], little: reply[hdrEndian] != endianBig}
	}
	d := decoderSet{plain: func(reply map[string]string) frameDecoder { return link(reply) }}
	if s.sfm {
		d.sparse = func(reply map[string]string, sc *subConn) frameDecoder {
			return &sparseDecoder{sink: link(reply), link: sc, fw: s.node.metrics.Fieldwire()}
		}
	}
	return d
}
