package ros

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// defaultQueueSize is the per-connection outbound queue depth, analogous
// to the queue_size argument of roscpp advertise.
const defaultQueueSize = 16

// defaultWriteTimeout bounds how long one frame write to one subscriber
// may block. A subscriber that stops reading (wedged process, stalled
// link) exhausts TCP buffering and would otherwise pin the connection's
// writer goroutine forever; the deadline converts the stall into a
// connection drop that the subscriber's reconnect machinery repairs.
const defaultWriteTimeout = 30 * time.Second

// PubOption configures Advertise.
type PubOption func(*pubConfig)

type pubConfig struct {
	queueSize    int
	latch        bool
	writeTimeout time.Duration
	// egressShards: 0 = auto (shard pool once the connection count
	// crosses autoShardThreshold), > 0 = forced pool of that many shards
	// from the first connection, < 0 = sharding disabled.
	egressShards int
	// relay marks the advertisement as a relay endpoint in the master's
	// graph (set by the relay tier, not by applications).
	relay bool
}

// WithQueueSize sets the per-subscriber outbound queue depth. When the
// queue is full the oldest frame is dropped, as in ROS.
func WithQueueSize(n int) PubOption {
	return func(c *pubConfig) {
		if n > 0 {
			c.queueSize = n
		}
	}
}

// WithLatch enables ROS latching: the last published message is kept
// (reference counted, for SFM messages) and delivered to every
// subscriber that attaches later.
func WithLatch() PubOption {
	return func(c *pubConfig) { c.latch = true }
}

// WithWriteTimeout bounds each frame write to a subscriber connection
// (default 30s); a write that exceeds it drops that connection instead
// of wedging the publisher. d <= 0 disables the deadline.
func WithWriteTimeout(d time.Duration) PubOption {
	return func(c *pubConfig) { c.writeTimeout = d }
}

// WithEgressShards controls sharded egress fan-out (see shard.go).
// n > 0 forces a pool of n shards serving every TCP subscriber from
// the first; n == 0 (the default) brings the pool up automatically
// once more than autoShardThreshold TCP subscribers attach; n < 0
// disables sharding so every subscriber keeps a dedicated write loop
// (the classic path, and the baseline the fan-out benchmark measures
// against). Shm-negotiated connections always use dedicated loops:
// their descriptors are minted per peer and cannot share a shard's
// encode-once batch.
func WithEgressShards(n int) PubOption {
	return func(c *pubConfig) { c.egressShards = n }
}

// Publisher publishes messages of type *T on one topic. Create with
// Advertise.
type Publisher[T any] struct {
	ep *pubEndpoint
}

// Advertise declares a topic with the message type *T and returns a
// Publisher for it — the analog of NodeHandle::advertise. Whether the
// topic uses the serializing ROS1 path or the serialization-free SFM path
// is decided by the message type alone.
func Advertise[T any](n *Node, topic string, opts ...PubOption) (*Publisher[T], error) {
	typeName, md5, ok := typeInfoOf[T]()
	if !ok {
		return nil, fmt.Errorf("ros: type %T does not implement ros.Message", new(T))
	}
	sfm := isSFMType[T]()
	if !sfm && !isSerializableType[T]() {
		return nil, fmt.Errorf("ros: type %T implements neither Serializable nor SFMessage", new(T))
	}
	ep, err := newPubEndpoint(n, topic, typeName, md5, sfm, nativeEndianName(core.NativeLittleEndian()), opts)
	if err != nil {
		return nil, err
	}
	return &Publisher[T]{ep: ep}, nil
}

// newPubEndpoint builds a topic's endpoint, attaches it to the node and
// registers it with the master. endianName is the byte order advertised
// in the connection header: the process's native order, or the recorded
// order when a raw publisher replays frames.
func newPubEndpoint(n *Node, topic, typeName, md5 string, sfm bool, endianName string, opts []PubOption) (*pubEndpoint, error) {
	cfg := pubConfig{queueSize: defaultQueueSize, writeTimeout: defaultWriteTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	ep := &pubEndpoint{
		node:         n,
		topic:        topic,
		typeName:     typeName,
		md5:          md5,
		sfm:          sfm,
		queueSize:    cfg.queueSize,
		latch:        cfg.latch,
		writeTimeout: cfg.writeTimeout,
		egressShards: cfg.egressShards,
		endianName:   endianName,
		stats:        n.metrics.Publisher(topic),
		conns:        make(map[*pubConn]struct{}),
		inproc:       make(map[inprocTarget]uint64),
	}
	if err := n.registerPub(topic, ep); err != nil {
		return nil, err
	}
	unregister, err := n.master.RegisterPublisher(topic, PublisherInfo{
		NodeName: n.name,
		Addr:     n.addr,
		TypeName: typeName,
		MD5:      md5,
		Relay:    cfg.relay,
		direct:   ep,
	})
	if err != nil {
		n.unregisterPub(topic)
		return nil, err
	}
	ep.unregister = unregister
	return ep, nil
}

// Topic returns the advertised topic name.
func (p *Publisher[T]) Topic() string { return p.ep.topic }

// NumSubscribers returns the number of attached subscribers (TCP
// connections plus intra-process attachments).
func (p *Publisher[T]) NumSubscribers() int { return p.ep.numSubscribers() }

// Close withdraws the advertisement and disconnects subscribers.
func (p *Publisher[T]) Close() { p.ep.close() }

// Publish sends a message to every attached subscriber.
//
// For serialization-free messages this is the paper's Fig. 8 hand-over:
// the message transitions to Published, the transport takes reference-
// counted views of the arena (the "copy of the buffer pointer"), and no
// byte of the message is serialized or copied before the socket write.
// The caller keeps its own reference and releases it when done with the
// object.
//
// For regular messages the ROS1 serializer runs once and the resulting
// frame fans out to all connections — the baseline cost ROS-SF removes.
func (p *Publisher[T]) Publish(m *T) error {
	ep := p.ep
	if ep.isClosed() {
		return errors.New("ros: publisher closed")
	}
	if ep.sfm {
		return publishSFM(ep, m)
	}
	s, ok := any(m).(Serializable)
	if !ok {
		return fmt.Errorf("ros: %T is not serializable", m)
	}
	w := wire.NewWriter(s.SerializedSizeROS())
	if err := s.SerializeROS(w); err != nil {
		return fmt.Errorf("ros: serialize %s: %w", ep.typeName, err)
	}
	var l *latchedMsg
	if ep.latch {
		l = &latchedMsg{frame: w.Bytes()}
	}
	ep.fanoutFrame(w.Bytes(), l)
	return nil
}

// publishSFM distributes an arena-backed message without serialization.
//
// When the topic latches, the new latch is built BEFORE the fan-out
// snapshot and installed inside the same critical section that captures
// the connection set. Installing it after the fan-out (the old order)
// left a window in which a subscriber accepted mid-publish received the
// previous latched message and permanently missed the newest one.
func publishSFM[T any](ep *pubEndpoint, m *T) error {
	if err := core.MarkPublished(m); err != nil {
		return fmt.Errorf("ros: publish %s: %w", ep.typeName, err)
	}
	var l *latchedMsg
	if ep.latch {
		// The latch holds its own reference; the closures mint more for
		// each late subscriber, which is safe while that hold exists.
		hold, err := core.NewRef(m)
		if err != nil {
			return fmt.Errorf("ros: latch %s: %w", ep.typeName, err)
		}
		mm := m
		l = &latchedMsg{
			mkItem: func() (frameItem, error) {
				r, err := core.NewRef(mm)
				if err != nil {
					return frameItem{}, err
				}
				return frameItem{ref: &r}, nil
			},
			mkShared: func() (any, func(), bool) {
				if core.Retain(mm) != nil {
					return nil, nil, false
				}
				return any(mm), func() { core.Release(mm) }, true
			},
			drop: func() { hold.Release() },
		}
	}
	// One checksum pass per publish: the memoizer hashes the arena on the
	// first consumer that needs each framing variant and every later one
	// reuses the stamped value. When the shard pool is live the plain
	// variant is computed here, OUTSIDE the endpoint lock, so the
	// per-shard items minted inside the snapshot's critical section only
	// copy the memoized value.
	var crcs pubCRC
	poolActive := ep.poolActive.Load()
	if poolActive {
		if r, err := core.NewRef(m); err == nil {
			crcs.plain(r.Bytes())
			r.Release()
		}
	}
	mkShard := func() (frameItem, bool) {
		r, err := core.NewRef(m)
		if err != nil {
			return frameItem{}, false
		}
		it := frameItem{ref: &r}
		it.crc, it.crcOK = crcs.plain(r.Bytes()), true
		return it, true
	}
	conns, targets, prev := ep.snapshotForPublish(l, mkShard)
	if prev != nil && prev.drop != nil {
		prev.drop()
	}

	// At fan-out 1 stamping is skipped (unless the hash already exists):
	// memoization saves nothing with one consumer, and computing the
	// checksum here would serialise it with the publish loop instead of
	// overlapping it with the next publish on the connection's writer
	// goroutine.
	stamp := len(conns) > 1 || crcs.plainOK
	for _, c := range conns {
		if c.shm != nil {
			// Zero-copy path: the subscriber gets a 24-byte descriptor into
			// the shared slot the message lives in — natively, or via a
			// copy-once promotion for heap-backed arenas.
			it, promoted, outcome := shmItemFor(c, m)
			if promoted {
				if st := ep.node.shmStats(); st != nil {
					st.Promotions.Inc()
				}
			}
			if outcome == shmShared {
				c.enqueue(it)
				continue
			}
			// No shared slot to point at: the bytes travel inline, still
			// framed for the tagged connection, and the fallback is
			// counted by reason (and eventually warned about) — silent
			// degradation off the descriptor path is a bug signal.
			used, _ := core.UsedSize(m)
			ep.noteShmFallback(used, outcome)
			ref, err := core.NewRef(m)
			if err != nil {
				return fmt.Errorf("ros: publish %s: %w", ep.typeName, err)
			}
			it = frameItem{ref: &ref, tag: tagInline}
			if stamp {
				it.crc, it.crcOK = crcs.inline(ref.Bytes()), true
			}
			c.enqueue(it)
			continue
		}
		ref, err := core.NewRef(m)
		if err != nil {
			return fmt.Errorf("ros: publish %s: %w", ep.typeName, err)
		}
		it := frameItem{ref: &ref}
		if stamp {
			it.crc, it.crcOK = crcs.plain(ref.Bytes()), true
		}
		c.enqueue(it)
	}
	for _, t := range targets {
		if err := core.Retain(m); err != nil {
			return fmt.Errorf("ros: publish %s: %w", ep.typeName, err)
		}
		mm := m // capture for the release closure
		t.deliverShared(any(mm), func() { core.Release(mm) })
	}

	if st := ep.stats; st != nil {
		st.Messages.Inc()
		if n, err := core.UsedSize(m); err == nil {
			st.Bytes.Add(uint64(n))
		}
		st.FanOut.Set(int64(len(conns) + len(targets) + ep.shardFanout()))
		if l != nil {
			st.Latched.Set(1)
		}
	}
	return nil
}

// shmFallbackWarnAfter is how many per-message fallbacks a
// shm-negotiated topic tolerates before the warn-once log fires: one
// miss is routine (a message allocated before the store attached),
// persistence is a degraded topic nobody would otherwise notice.
const shmFallbackWarnAfter = 8

// noteShmFallback counts one per-message inline fallback on a
// shm-negotiated connection, split by reason: above the transport cap
// is oversized (by design), anything else that promotion could not
// place is heap_arena, and a lease lost under Share is a transient
// counted only in the aggregate. Persistent fallback logs once per
// endpoint, mirroring the subscriber's transport-unavailable warning.
func (ep *pubEndpoint) noteShmFallback(used int, outcome shmOutcome) {
	if st := ep.node.shmStats(); st != nil {
		st.Fallbacks.Inc()
		if outcome == shmNoSlot {
			if used > shm.MaxMessageBytes {
				st.FallbackOversized.Inc()
			} else {
				st.FallbackHeapArena.Inc()
			}
		}
	}
	if n := ep.shmFallbacks.Add(1); n >= shmFallbackWarnAfter && !ep.shmFallbackWarned.Swap(true) {
		log.Printf("ros: topic %q negotiated shared memory but %d message(s) fell back to inline TCP copies; see shm.fallbacks_by_reason in /metrics or `rostopic stats` for the cause",
			ep.topic, n)
	}
}

// inprocTarget is a same-process subscriber attachment.
type inprocTarget interface {
	// deliverShared hands over a shared serialization-free message; the
	// target must call release exactly once when done.
	deliverShared(m any, release func())
	// deliverFrame hands over a frame in the endpoint's wire regime: a
	// serialized ROS1 message, or (from a raw SFM publisher) an arena
	// image in the byte order srcLittle names. The frame must not be
	// retained after return.
	deliverFrame(frame []byte, srcLittle bool)
}

// frameItem is one outbound queue entry: a plain serialized frame, a
// reference-counted view of an SFM arena, or (on shm connections) an
// encoded shared-memory descriptor. tag selects the transport framing
// on tagged connections; zero means untagged/inline. undo, when set,
// returns the shm peer reference minted for a descriptor that never
// reached the wire — the write loop clears it before the first write
// attempt, because after any byte may have reached the subscriber the
// reference belongs to the peer (or, if the peer died, to its lease
// reaper), never to an undo.
type frameItem struct {
	data []byte
	ref  *core.Ref
	tag  byte
	// crc, when crcOK, is the frame checksum precomputed at publish time
	// — over the payload on plain connections, over tag||payload on
	// tagged ones — so N-subscriber fan-out hashes the arena once
	// instead of once per connection. crcOK false (latched items, fan-out
	// 1) makes the write loop compute it.
	crc   uint32
	crcOK bool
	undo  func()
}

func (it frameItem) bytes() []byte {
	if it.ref != nil {
		return it.ref.Bytes()
	}
	return it.data
}

// release disposes of an item that is leaving the queue unsent (or, for
// ref-only items, after its send): the arena reference drops and any
// unsent descriptor's peer reference is returned.
func (it frameItem) release() {
	if it.undo != nil {
		it.undo()
	}
	if it.ref != nil {
		it.ref.Release()
	}
}

// pubEndpoint is the type-erased per-topic publisher state serving all
// subscriber attachments.
type pubEndpoint struct {
	node         *Node
	topic        string
	typeName     string
	md5          string
	sfm          bool
	queueSize    int
	latch        bool
	writeTimeout time.Duration
	// endianName is advertised in the connection header; normally the
	// process's native order, but raw publishers replaying recorded
	// frames advertise the recorded order.
	endianName string
	unregister func()
	stats      *obs.PubStats // nil when the node's metrics are disabled
	// egressShards is the sharding config (see WithEgressShards);
	// poolActive mirrors pool != nil so the publish path can decide to
	// pre-hash outside the lock.
	egressShards int
	poolActive   atomic.Bool

	// shmFallbacks counts this endpoint's per-message inline fallbacks
	// on shm-negotiated connections; shmFallbackWarned arms the
	// warn-once log for a persistently degraded topic — the publisher
	// analogue of the subscriber's silently-empty-subscription warning.
	shmFallbacks      atomic.Uint64
	shmFallbackWarned atomic.Bool
	// maskRejectWarned arms the warn-once log for rejected subscriber
	// field masks (see answer.commit).
	maskRejectWarned atomic.Bool

	mu sync.Mutex
	// pubSeq numbers publishes. Each attachment remembers the sequence
	// of the last publish whose fan-out included it (pubConn.latchSeen,
	// the inproc map value), so latched delivery to a late subscriber
	// can tell "already received via fan-out" from "needs the latch" —
	// giving exactly-once delivery of the newest message.
	pubSeq  uint64
	conns   map[*pubConn]struct{}
	inproc  map[inprocTarget]uint64 // value: latchSeen sequence
	pool    *egressShardPool        // non-nil once sharded fan-out engaged
	latched *latchedMsg
	closed  bool

	wg sync.WaitGroup
}

// latchedMsg retains the last published message for late subscribers.
// For SFM messages the closures mint fresh arena references per
// consumer; for regular messages frame is the immutable serialized
// form.
type latchedMsg struct {
	seq      uint64                     // pubSeq of the publish that latched it
	frame    []byte                     // regular path
	mkItem   func() (frameItem, error)  // SFM: per-connection queue item
	mkShared func() (any, func(), bool) // SFM: intra-process delivery
	drop     func()                     // release the latch's own hold
}

// snapshotForPublish captures the fan-out set and, when l is non-nil,
// installs it as the new latch — in ONE critical section. This is the
// fix for the latched-publish race: with the latch installed after the
// fan-out, a subscriber accepted in between received the previous
// latched message and missed the newest until the next publish. Every
// snapshotted attachment is stamped with this publish's sequence so the
// latched-delivery paths can skip attachments the fan-out already
// covered (no duplicate of the newest message either). The previous
// latch is returned for the caller to drop outside the lock.
//
// When the shard pool is live, the same critical section enqueues one
// item per shard (minted by mkShard), so shard delivery order agrees
// with join order and the latch sequence — the sharded analogue of the
// conns snapshot. A publish that races close loses: nothing is
// snapshotted or enqueued, and the caller's uninstalled latch comes
// back as prev so its hold is released.
func (ep *pubEndpoint) snapshotForPublish(l *latchedMsg, mkShard func() (frameItem, bool)) (conns []*pubConn, targets []inprocTarget, prev *latchedMsg) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, nil, l
	}
	ep.pubSeq++
	seq := ep.pubSeq
	conns = make([]*pubConn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
		c.latchSeen = seq
	}
	targets = make([]inprocTarget, 0, len(ep.inproc))
	for t := range ep.inproc {
		targets = append(targets, t)
		ep.inproc[t] = seq
	}
	if ep.pool != nil && mkShard != nil {
		for _, s := range ep.pool.shards {
			it, ok := mkShard()
			if !ok {
				break
			}
			s.enqueue(shardItem{seq: seq, it: it})
		}
	}
	if l != nil {
		l.seq = seq
		prev = ep.latched
		ep.latched = l
	}
	ep.mu.Unlock()
	return conns, targets, prev
}

// deliverLatchedTCP enqueues the retained message on a new connection,
// unless the connection already received it through a publish fan-out.
func (ep *pubEndpoint) deliverLatchedTCP(pc *pubConn) {
	ep.mu.Lock()
	l := ep.latched
	if l == nil || pc.latchSeen >= l.seq {
		ep.mu.Unlock()
		return
	}
	pc.latchSeen = l.seq
	ep.mu.Unlock()
	if it, ok := latchItemFor(l); ok {
		pc.enqueue(it)
	}
}

// deliverLatchedInproc hands the retained message to a new same-process
// subscriber, with the same already-seen dedup as the TCP path.
func (ep *pubEndpoint) deliverLatchedInproc(t inprocTarget) {
	ep.mu.Lock()
	l := ep.latched
	seen, attached := ep.inproc[t]
	if l == nil || !attached || seen >= l.seq {
		ep.mu.Unlock()
		return
	}
	ep.inproc[t] = l.seq
	ep.mu.Unlock()
	if l.mkShared != nil {
		if m, release, ok := l.mkShared(); ok {
			t.deliverShared(m, release)
		}
		return
	}
	if l.frame != nil {
		t.deliverFrame(l.frame, ep.endianName != endianBig)
	}
}

func (ep *pubEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *pubEndpoint) numSubscribers() int {
	ep.mu.Lock()
	n := len(ep.conns) + len(ep.inproc)
	p := ep.pool
	ep.mu.Unlock()
	if p != nil {
		n += p.memberCount()
	}
	return n
}

// shardFanout returns the number of sharded subscriber connections (0
// when the pool is not live).
func (ep *pubEndpoint) shardFanout() int {
	if !ep.poolActive.Load() {
		return 0
	}
	ep.mu.Lock()
	p := ep.pool
	ep.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.memberCount()
}

// fanoutFrame distributes a serialized frame to all attachments and,
// when l is non-nil, installs it as the new latch atomically with the
// fan-out snapshot (see snapshotForPublish). The frame is shared
// read-only; it must not be mutated afterwards.
func (ep *pubEndpoint) fanoutFrame(frame []byte, l *latchedMsg) {
	// Hash the frame once per framing variant, not once per connection
	// (raw SFM publishers can negotiate shm, so tagged connections are
	// possible here too). With the shard pool live the plain variant is
	// memoized here, outside the lock, for the per-shard items.
	var crcs pubCRC
	if ep.poolActive.Load() {
		crcs.plain(frame)
	}
	mkShard := func() (frameItem, bool) {
		it := frameItem{data: frame}
		it.crc, it.crcOK = crcs.plain(frame), true
		return it, true
	}
	conns, targets, prev := ep.snapshotForPublish(l, mkShard)
	if prev != nil && prev.drop != nil {
		prev.drop()
	}
	// Stamping at fan-out 1 is skipped for the same pipelining reason as
	// the SFM path, unless the hash already exists.
	stamp := len(conns) > 1 || crcs.plainOK
	for _, c := range conns {
		it := frameItem{data: frame}
		if stamp {
			if c.shm != nil {
				it.crc, it.crcOK = crcs.inline(frame), true
			} else {
				it.crc, it.crcOK = crcs.plain(frame), true
			}
		}
		c.enqueue(it)
	}
	for _, t := range targets {
		t.deliverFrame(frame, ep.endianName != endianBig)
	}
	if st := ep.stats; st != nil {
		st.Messages.Inc()
		st.Bytes.Add(uint64(len(frame)))
		st.FanOut.Set(int64(len(conns) + len(targets) + ep.shardFanout()))
		if l != nil {
			st.Latched.Set(1)
		}
	}
}

// acceptConn completes the publisher side of the subscriber handshake.
func (ep *pubEndpoint) acceptConn(conn net.Conn, req map[string]string) error {
	if req[hdrType] != ep.typeName {
		return refuse(conn, fmt.Sprintf("topic %q is %s, subscriber wants %s", ep.topic, ep.typeName, req[hdrType]))
	}
	if req[hdrMD5] != ep.md5 {
		return refuse(conn, fmt.Sprintf("md5 mismatch on %q: %s vs %s", ep.topic, ep.md5, req[hdrMD5]))
	}
	wantFormat := formatName(ep.sfm)
	if req[hdrFormat] != wantFormat {
		return refuse(conn, fmt.Sprintf("format mismatch on %q: publisher %s, subscriber %s",
			ep.topic, wantFormat, req[hdrFormat]))
	}
	reply := map[string]string{
		hdrType:     ep.typeName,
		hdrMD5:      ep.md5,
		hdrCallerID: ep.node.name,
		hdrFormat:   wantFormat,
		hdrEndian:   ep.endianName,
	}
	a := ep.answer(req)
	a.appendTo(reply)
	if err := ep.admit(conn, reply, &a); err != nil {
		a.abort()
		return err
	}
	return nil
}

// admit sends the reply and attaches the connection to the endpoint —
// its own write loop, or a shard. The subscriber may hang up or the
// endpoint may close first: then nothing the answer decided is counted
// and the caller releases what it reserved. Once neither can happen the
// answer is committed, before the connection can carry a frame, so a
// reader that saw a delivery also sees the counters.
func (ep *pubEndpoint) admit(conn net.Conn, reply map[string]string, a *answer) error {
	if err := writeHeader(conn, reply); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})

	pc := &pubConn{
		conn:         conn,
		writeTimeout: ep.writeTimeout,
		stats:        ep.stats,
		egress:       ep.node.metrics.Egress(),
		shm:          a.shm,
		mask:         a.mask,
		fw:           ep.node.fieldwireStats(),
		stop:         make(chan struct{}),
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return errors.New("ros: publisher closed")
	}
	a.commit(ep)
	// Shard routing: plain TCP connections go to the pool once it is (or
	// should be) live; shm connections always keep a dedicated loop, as
	// their descriptors are per-peer, and so do mask-negotiated ones,
	// whose frames are encoded per connection. The join, the latch
	// enqueue and the pool bring-up all happen inside this critical
	// section, so a concurrent publish either precedes the join (lastSeq
	// covers it) or follows the latch in the shard's queue.
	if a.mode == modePlain && ep.egressShards >= 0 &&
		(ep.pool != nil || ep.egressShards > 0 || len(ep.conns) >= autoShardThreshold) {
		if ep.pool == nil {
			n := ep.egressShards
			if n == 0 {
				n = defaultShardCount
			}
			ep.pool = newEgressShardPool(ep, n)
			ep.poolActive.Store(true)
		}
		s := ep.pool.join(pc)
		if l := ep.latched; l != nil {
			if it, ok := latchItemFor(l); ok {
				pc.latchSeen = l.seq
				s.enqueue(shardItem{seq: l.seq, only: pc, it: it})
			}
		}
		ep.mu.Unlock()
		return nil
	}
	pc.ch = make(chan frameItem, ep.queueSize)
	ep.conns[pc] = struct{}{}
	ep.mu.Unlock()

	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		pc.writeLoop()
		ep.dropConn(pc)
	}()
	ep.deliverLatchedTCP(pc)
	return nil
}

// latchItemFor builds a queue item carrying the latched message.
func latchItemFor(l *latchedMsg) (frameItem, bool) {
	if l.mkItem != nil {
		it, err := l.mkItem()
		return it, err == nil
	}
	if l.frame != nil {
		return frameItem{data: l.frame}, true
	}
	return frameItem{}, false
}

// attachInproc adds a same-process subscriber. The subscriber's wire
// regime must match the publisher's, as on the TCP path.
func (ep *pubEndpoint) attachInproc(t inprocTarget, sfm bool) error {
	if sfm != ep.sfm {
		return fmt.Errorf("%w: format mismatch on %q", ErrHandshake, ep.topic)
	}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return errors.New("ros: publisher closed")
	}
	ep.inproc[t] = 0
	ep.mu.Unlock()
	ep.deliverLatchedInproc(t)
	return nil
}

// detachInproc removes a same-process subscriber.
func (ep *pubEndpoint) detachInproc(t inprocTarget) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	delete(ep.inproc, t)
}

func (ep *pubEndpoint) dropConn(pc *pubConn) {
	ep.mu.Lock()
	delete(ep.conns, pc)
	ep.mu.Unlock()
	pc.teardown()
}

// dropShardConn detaches a failed sharded connection from its shard and
// tears it down. Called by the shard's own goroutine, which is the only
// writer to pc, so no other delivery can be in flight.
func (ep *pubEndpoint) dropShardConn(s *egressShard, pc *pubConn) {
	if s.removeMember(pc) {
		s.stats.Conns.Add(-1)
		s.pool.fanout.ShardedConns.Add(-1)
	}
	pc.teardown()
}

// maybeRebalance moves one connection from the most- to the
// least-loaded shard when departures have skewed the pool. The move is
// enqueued through the source shard's queue (ordered with its
// deliveries); repeated passes converge one step at a time.
func (ep *pubEndpoint) maybeRebalance() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.rebalanceLocked()
}

func (ep *pubEndpoint) rebalanceLocked() {
	p := ep.pool
	if p == nil || ep.closed {
		return
	}
	var maxS, minS *egressShard
	maxN, minN := -1, int(^uint(0)>>1)
	for _, s := range p.shards {
		n := s.memberCount()
		if n > maxN {
			maxN, maxS = n, s
		}
		if n < minN {
			minN, minS = n, s
		}
	}
	if maxS == nil || maxS == minS || maxN <= minN+1 {
		return
	}
	maxS.mu.Lock()
	var victim *pubConn
	if len(maxS.members) > 0 {
		victim = maxS.members[0]
	}
	maxS.mu.Unlock()
	if victim == nil {
		return
	}
	maxS.enqueue(shardItem{move: &shardMove{c: victim, to: minS}})
}

func (ep *pubEndpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	conns := make([]*pubConn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.conns = make(map[*pubConn]struct{})
	ep.inproc = make(map[inprocTarget]uint64)
	pool := ep.pool
	latched := ep.latched
	ep.latched = nil
	ep.mu.Unlock()

	if latched != nil && latched.drop != nil {
		latched.drop()
	}

	for _, c := range conns {
		c.teardown()
	}
	if pool != nil {
		// Shard loops drain their queues and tear down their members on
		// the way out; ep.wg below waits for them.
		pool.stopAll()
	}
	if ep.unregister != nil {
		ep.unregister()
	}
	ep.node.unregisterPub(ep.topic)
	ep.wg.Wait()
}

// pubConn is one subscriber TCP attachment with a bounded outbound
// queue.
type pubConn struct {
	conn         net.Conn
	writeTimeout time.Duration
	stats        *obs.PubStats       // nil when metrics are disabled
	egress       *obs.EgressStats    // nil when metrics are disabled
	shm          *shmSender          // non-nil on connections that negotiated shm
	mask         *fieldwire.Mask     // non-nil on connections that negotiated a field mask
	fw           *obs.FieldwireStats // nil when metrics are disabled
	ch           chan frameItem

	// latchSeen is the pubSeq of the last publish whose fan-out included
	// this connection; guarded by the owning endpoint's mu.
	latchSeen uint64

	// lastSeq is the newest broadcast sequence already written to a
	// SHARDED connection — the delivery gate of shard.go. It is accessed
	// only by the shard goroutine currently servicing the connection;
	// shard handoffs synchronise through the target shard's mutex, and
	// the join (under ep.mu) seeds it before any shard can see the
	// connection. ch is nil on sharded connections: they have no
	// dedicated write loop.
	lastSeq uint64

	stopOnce sync.Once
	stop     chan struct{}
}

// enqueue adds a frame, dropping the oldest queued frame when full (ROS
// queue_size semantics). A frame enqueued while the connection tears
// down must still be released: teardown drains the queue once, so after
// a successful send we re-check stop and drain one item ourselves if
// the connection stopped concurrently — every post-stop enqueue then
// releases exactly one item, leaving nothing stranded.
func (pc *pubConn) enqueue(it frameItem) {
	for {
		select {
		case <-pc.stop:
			it.release()
			return
		case pc.ch <- it:
			select {
			case <-pc.stop:
				select {
				case old := <-pc.ch:
					old.release()
				default:
				}
			default:
			}
			return
		default:
		}
		select {
		case old := <-pc.ch:
			old.release()
			if pc.stats != nil {
				pc.stats.Drops.Inc()
			}
		default:
		}
	}
}

// connBatch is the write stage of one connection: frames as they were
// queued (egressBatch), or each message sliced down to its negotiated
// field mask (sparseBatch). Publish-time fan-out is the same either way
// — masked and unmasked subscribers share the very same queue items.
type connBatch interface {
	add(frameItem)
	full() bool
	flush() bool
	close()
}

// writeLoop drains the outbound queue in adaptive batches: it blocks
// for one item, then collects whatever is already queued — never
// waiting for more, so an unloaded connection keeps per-frame latency —
// and ships the run as one vectored write with one deadline (see
// egress.go). A failed write (including a deadline hit from a
// subscriber that stopped draining the socket) drops the connection;
// the subscriber's retry loop re-establishes the link once it recovers.
func (pc *pubConn) writeLoop() {
	var b connBatch
	if pc.mask != nil {
		b = newSparseBatch(pc)
	} else {
		b = newEgressBatch(pc)
	}
	defer b.close()
	for {
		select {
		case <-pc.stop:
			return
		case it := <-pc.ch:
			b.add(it)
			for !b.full() {
				select {
				case more := <-pc.ch:
					b.add(more)
					continue
				default:
				}
				break
			}
			if !b.flush() {
				return
			}
		}
	}
}

func (pc *pubConn) teardown() {
	pc.stopOnce.Do(func() {
		close(pc.stop)
		pc.conn.Close()
		// Drain and release anything still queued.
	drain:
		for {
			select {
			case it := <-pc.ch:
				it.release()
			default:
				break drain
			}
		}
		// The subscriber is gone: mark its lease draining. References it
		// still holds are released by its own process as callbacks finish,
		// or reclaimed by the reaper once its heartbeat goes stale.
		if pc.shm != nil {
			pc.shm.store.RetirePeer(pc.shm.peer)
		}
	})
}
