package ros

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
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
	// shards is when the endpoint brings up its shard pool, and how
	// big; every endpoint gets defaultShardPolicy, and only tests move it.
	shards shardPolicy
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
	cfg := pubConfig{queueSize: defaultQueueSize, writeTimeout: defaultWriteTimeout,
		shards: defaultShardPolicy}
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
		shards:       cfg.shards,
		endianName:   endianName,
		stats:        n.metrics.Publisher(topic),
		att:          &attachments{},
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
	ep.fanout(w.Bytes(), nil, core.Ref{}, l)
	return nil
}

// publishSFM distributes an arena-backed message without serialization.
// The message is resolved once: hold is the publish's own reference, the
// view it returns is what every consumer ships, and each consumer's
// reference is retained through hold — no further address lookup, no
// further trip through the record lock.
func publishSFM[T any](ep *pubEndpoint, m *T) error {
	hold, err := core.NewRef(m)
	if err != nil {
		return fmt.Errorf("ros: publish %s: %w", ep.typeName, err)
	}
	defer hold.Release()
	frame, err := hold.Publish()
	if err != nil {
		return fmt.Errorf("ros: publish %s: %w", ep.typeName, err)
	}
	var l *latchedMsg
	if ep.latch {
		// The latch holds its own reference; later consumers retain
		// through it, which is safe while that hold exists.
		ref, err := hold.Retain()
		if err != nil {
			return fmt.Errorf("ros: latch %s: %w", ep.typeName, err)
		}
		l = &latchedMsg{frame: frame, msg: m, ref: ref}
	}
	ep.fanout(frame, m, hold, l)
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
		log.Printf("ros: topic %q negotiated shared memory but %d message(s) fell back to inline copies; see shm.fallbacks_by_reason in /metrics or `rostopic stats` for the cause",
			ep.topic, n)
	}
}

// refuseOversized counts a size-byte frame the egress encoder refused for
// being above its links' frame cap — a drop on each, by reason — and warns
// once per endpoint. None of its bytes reached them, so they stay up.
func (ep *pubEndpoint) refuseOversized(size, links int) {
	if st := ep.stats; st != nil {
		st.Drops.Add(uint64(links))
		st.DropsOversized.Add(uint64(links))
	}
	if !ep.oversizeWarned.Swap(true) {
		log.Printf("ros: topic %q dropped a %d-byte frame above its link's frame cap (plain TCP carries at most %d bytes); see drops_oversized in /metrics or `rostopic stats`",
			ep.topic, size, maxFrameSize)
	}
}

// inprocTarget is a same-process subscriber attachment.
type inprocTarget interface {
	// deliverShared hands over a shared serialization-free message of
	// size bytes together with a reference to it; the target releases
	// ref exactly once when done.
	deliverShared(m any, ref core.Ref, size int)
	// deliverFrame hands over a frame in the endpoint's wire regime: a
	// serialized ROS1 message, or (from a raw SFM publisher) an arena
	// image in the byte order srcLittle names. The frame must not be
	// retained after return.
	deliverFrame(frame []byte, srcLittle bool)
}

// frameItem is one outbound queue entry. data is what goes on the wire:
// a plain serialized frame, or the view of an SFM arena resolved at
// publish and pinned by ref; a tagDescriptor item carries desc instead,
// the shared-memory descriptor an shm link's write loop makes of an
// arena item just before the batch (pubConn.ready). tag selects the
// transport framing on tagged connections; zero means untagged/inline.
// The struct is kept at 72 bytes: one word more costs tcp_4k_stream 1%.
type frameItem struct {
	data []byte
	ref  core.Ref // zero unless data views an arena
	desc shm.Descriptor
	// crc, when crcOK, is the frame checksum precomputed at publish time
	// — over the payload on plain connections, over tag||payload on
	// tagged ones — so N-subscriber fan-out hashes the arena once
	// instead of once per connection. crcOK false (latched items, fan-out
	// 1, arena items bound for shm links) makes the write loop compute it.
	crc   uint32
	tag   byte
	crcOK bool
}

// dup returns a copy of the item that holds its own reference to the
// arena (the original's is only borrowed). It fails once the message is
// destructed.
func (it frameItem) dup() (frameItem, bool) {
	if it.ref.IsZero() {
		return it, true
	}
	ref, err := it.ref.Retain()
	if err != nil {
		return frameItem{}, false
	}
	it.ref = ref
	return it, true
}

// release drops the item's arena reference, after its send or instead
// of it.
func (it frameItem) release() {
	it.ref.Release() //nolint:errcheck // items without an arena hold the zero Ref
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
	// shards is the sharding policy (shard.go); poolActive mirrors
	// pool != nil so the publish path can decide to pre-hash outside
	// the lock.
	shards     shardPolicy
	poolActive atomic.Bool

	// shmFallbacks counts this endpoint's per-message inline fallbacks
	// on shm-negotiated connections; shmFallbackWarned arms the
	// warn-once log for a persistently degraded topic — the publisher
	// analogue of the subscriber's silently-empty-subscription warning.
	shmFallbacks      atomic.Uint64
	shmFallbackWarned atomic.Bool
	// maskRejectWarned arms the warn-once log for rejected subscriber
	// field masks (see answer.commit), oversizeWarned the one for frames
	// refused by a link's frame cap (see refuseOversized).
	maskRejectWarned atomic.Bool
	oversizeWarned   atomic.Bool

	mu sync.Mutex
	// pubSeq numbers publishes. An attachment notes the sequence current
	// when it joined, so latched delivery to a late subscriber can tell
	// "the latch's publish already fanned out to me" from "needs the
	// latch" — giving exactly-once delivery of the newest message.
	pubSeq  uint64
	att     *attachments     // replaced, never edited, on attach/detach
	pool    *egressShardPool // non-nil once sharded fan-out engaged
	latched *latchedMsg
	closed  bool

	wg sync.WaitGroup
}

// attachments is an immutable snapshot of an endpoint's fan-out set:
// the connections with a dedicated write loop and the same-process
// targets. Attach and detach install a new one (copy-on-write, under
// ep.mu), so a publish takes the current snapshot as it stands instead
// of rebuilding the set per message.
type attachments struct {
	conns   []*pubConn
	targets []inprocTarget
}

// added returns s with x appended, in fresh storage.
func added[T any](s []T, x T) []T {
	return append(slices.Clip(s), x)
}

// removed returns s without x, in fresh storage; s itself when x is not
// in it.
func removed[T comparable](s []T, x T) []T {
	i := slices.Index(s, x)
	if i < 0 {
		return s
	}
	return slices.Delete(slices.Clone(s), i, i+1)
}

// latchedMsg retains the last published message for late subscribers:
// frame is what they are sent — the immutable serialized form, or an SFM
// arena view. For SFM messages ref is the latch's own hold on the arena
// (each consumer retains through it) and msg the typed message for
// intra-process delivery.
type latchedMsg struct {
	seq   uint64 // pubSeq of the publish that latched it
	frame []byte
	msg   any
	ref   core.Ref
}

// drop releases the latch's own hold. The latch may still be read by a
// late subscriber that picked it up just before it was replaced, so the
// handle is released through a copy; that subscriber's retain then fails
// and it gets nothing, as when the message was already destructed.
func (l *latchedMsg) drop() {
	ref := l.ref
	ref.Release() //nolint:errcheck // regular latches hold the zero Ref
}

// snapshotForPublish takes the fan-out set and, when l is non-nil,
// installs it as the new latch — in ONE critical section. This is the
// fix for the latched-publish race: with the latch installed after the
// fan-out, a subscriber accepted in between received the previous
// latched message and missed the newest until the next publish. The
// publish takes the next sequence number in the same section, and every
// attachment in the snapshot joined under an earlier one, so the
// latched-delivery paths can skip attachments the fan-out already
// covered (no duplicate of the newest message either). The previous
// latch is returned for the caller to drop outside the lock.
//
// When the shard pool is live, the same critical section enqueues one
// copy of perShard per shard, so shard delivery order agrees with join
// order and the latch sequence — the sharded analogue of the snapshot.
// A publish that races close loses: nothing is snapshotted or enqueued,
// and the caller's uninstalled latch comes back as prev so its hold is
// released.
func (ep *pubEndpoint) snapshotForPublish(l *latchedMsg, perShard frameItem) (att *attachments, prev *latchedMsg) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return ep.att, l // emptied by close
	}
	ep.pubSeq++
	if ep.pool != nil {
		for _, s := range ep.pool.shards {
			it, ok := perShard.dup()
			if !ok {
				break
			}
			s.enqueue(shardItem{seq: ep.pubSeq, it: it})
		}
	}
	if l != nil {
		l.seq = ep.pubSeq
		prev = ep.latched
		ep.latched = l
	}
	return ep.att, prev
}

// deliverLatchedTCP enqueues the retained message on a connection that
// joined at publish sequence joined, unless a later publish — whose
// fan-out included the connection — has replaced the latch since.
func (ep *pubEndpoint) deliverLatchedTCP(pc *pubConn, joined uint64) {
	ep.mu.Lock()
	l := ep.latched
	ep.mu.Unlock()
	if l == nil || l.seq > joined {
		return
	}
	if it, ok := latchItemFor(l); ok {
		pc.enqueue(it)
	}
}

// deliverLatchedInproc hands the retained message to a new same-process
// subscriber, with the same already-covered dedup as the TCP path.
func (ep *pubEndpoint) deliverLatchedInproc(t inprocTarget, joined uint64) {
	ep.mu.Lock()
	l := ep.latched
	attached := slices.Contains(ep.att.targets, t)
	ep.mu.Unlock()
	if l == nil || !attached || l.seq > joined {
		return
	}
	if l.msg == nil {
		t.deliverFrame(l.frame, ep.endianName != endianBig)
		return
	}
	if ref, err := l.ref.Retain(); err == nil {
		t.deliverShared(l.msg, ref, len(l.frame))
	}
}

func (ep *pubEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

func (ep *pubEndpoint) numSubscribers() int {
	ep.mu.Lock()
	n := len(ep.att.conns) + len(ep.att.targets)
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

// fanout distributes one publish to all attachments and, when l is
// non-nil, installs it as the new latch atomically with the fan-out
// snapshot (see snapshotForPublish). frame is what travels: a serialized
// frame, shared read-only and not to be mutated afterwards, or — with
// msg and hold set — the view of an SFM arena, which every consumer pins
// with a reference of its own retained through hold.
func (ep *pubEndpoint) fanout(frame []byte, msg any, hold core.Ref, l *latchedMsg) {
	// One checksum pass per publish and framing variant, not one per
	// connection: the memoizer hashes the bytes on the first consumer
	// that needs each variant and every later one reuses the stamped
	// value. When the shard pool is live the plain variant is computed
	// here, OUTSIDE the endpoint lock, so the per-shard items minted
	// inside the snapshot's critical section only copy the memoized
	// value.
	var crcs pubCRC
	base := frameItem{data: frame, ref: hold} // hold is borrowed: consumers get dups
	perShard := base
	if ep.poolActive.Load() {
		perShard.crc, perShard.crcOK = crcs.plain(frame), true
	}
	att, prev := ep.snapshotForPublish(l, perShard)
	if prev != nil {
		prev.drop()
	}

	// At fan-out 1 stamping is skipped (unless the hash already exists):
	// memoization saves nothing with one consumer, and computing the
	// checksum here would serialise it with the publish loop instead of
	// overlapping it with the next publish on the connection's writer
	// goroutine.
	stamp := len(att.conns) > 1 || crcs.plainOK
	for _, c := range att.conns {
		it, ok := base.dup()
		if !ok {
			continue
		}
		switch {
		case c.shm != nil && msg != nil:
			// An arena item on an shm link normally leaves as a descriptor
			// minted by the link's write loop (pubConn.ready): hashing its
			// bytes here would be wasted work.
		case stamp && c.shm != nil:
			// Tagged connections (raw SFM publishers can negotiate shm
			// too) frame message bytes as tagInline||bytes.
			it.crc, it.crcOK = crcs.inline(frame), true
		case stamp:
			it.crc, it.crcOK = crcs.plain(frame), true
		}
		c.enqueue(it)
	}
	for _, t := range att.targets {
		if msg == nil {
			t.deliverFrame(frame, ep.endianName != endianBig)
		} else if ref, err := hold.Retain(); err == nil {
			t.deliverShared(msg, ref, len(frame))
		}
	}

	if st := ep.stats; st != nil {
		st.Messages.Inc()
		st.Bytes.Add(uint64(len(frame)))
		st.FanOut.Set(int64(len(att.conns) + len(att.targets) + ep.shardFanout()))
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
		ep:    ep,
		conn:  conn,
		stats: ep.stats,
		shm:   a.shm,
		mask:  a.mask,
		stop:  make(chan struct{}),
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
	if a.mode == modePlain && (ep.pool != nil || len(ep.att.conns) >= ep.shards.at) {
		if ep.pool == nil {
			ep.pool = newEgressShardPool(ep, ep.shards.n)
			ep.poolActive.Store(true)
		}
		pool := ep.pool
		s := pool.join(pc)
		if l := ep.latched; l != nil {
			if it, ok := latchItemFor(l); ok {
				s.enqueue(shardItem{seq: l.seq, only: pc, it: it})
			}
		}
		ep.wg.Add(1)
		ep.mu.Unlock()
		go func() {
			defer ep.wg.Done()
			awaitHangup(conn)
			pool.drop(pc)
		}()
		return nil
	}
	pc.ch = make(chan frameItem, ep.queueSize)
	ep.att = &attachments{conns: added(ep.att.conns, pc), targets: ep.att.targets}
	joined := ep.pubSeq
	ep.wg.Add(2)
	ep.mu.Unlock()

	go func() {
		defer ep.wg.Done()
		pc.writeLoop()
		ep.dropConn(pc)
	}()
	go func() {
		defer ep.wg.Done()
		awaitHangup(conn)
		pc.teardown()
	}()
	ep.deliverLatchedTCP(pc, joined)
	return nil
}

// awaitHangup parks one read on a subscriber link and returns when the
// link ends: the subscriber hung up or died, or teardown closed the
// connection. Subscribers send nothing after the handshake, whatever
// the link carries (plain, masked or shm frames), so any bytes that do
// arrive are discarded. This is how a link on an idle topic learns its
// subscriber is gone: no write has to fail first.
func awaitHangup(conn net.Conn) {
	var buf [64]byte
	for {
		if _, err := conn.Read(buf[:]); err != nil {
			return
		}
	}
}

// latchItemFor builds a queue item carrying the latched message.
func latchItemFor(l *latchedMsg) (frameItem, bool) {
	return frameItem{data: l.frame, ref: l.ref}.dup()
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
	if !slices.Contains(ep.att.targets, t) {
		ep.att = &attachments{conns: ep.att.conns, targets: added(ep.att.targets, t)}
	}
	joined := ep.pubSeq
	ep.mu.Unlock()
	ep.deliverLatchedInproc(t, joined)
	return nil
}

// detachInproc removes a same-process subscriber.
func (ep *pubEndpoint) detachInproc(t inprocTarget) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.att = &attachments{conns: ep.att.conns, targets: removed(ep.att.targets, t)}
}

func (ep *pubEndpoint) dropConn(pc *pubConn) {
	ep.mu.Lock()
	ep.att = &attachments{conns: removed(ep.att.conns, pc), targets: ep.att.targets}
	ep.mu.Unlock()
	pc.teardown()
}

// maybeRebalance moves one connection from the most- to the
// least-loaded shard when departures have skewed the pool. The move is
// enqueued through the source shard's queue (ordered with its
// deliveries); repeated passes converge one step at a time.
func (ep *pubEndpoint) maybeRebalance() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
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
	conns := ep.att.conns
	ep.att = &attachments{}
	pool := ep.pool
	latched := ep.latched
	ep.latched = nil
	ep.mu.Unlock()

	if latched != nil {
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

// pubConn is one subscriber attachment with a bounded outbound queue:
// a TCP connection that carries the frames, or — when it negotiated shm
// — only the handshake, the frames riding the grant's queue.
type pubConn struct {
	ep    *pubEndpoint // its write timeout and instruments are the connection's
	conn  net.Conn
	stats *obs.PubStats   // nil when metrics are disabled
	shm   *shmSender      // non-nil on connections that negotiated shm
	mask  *fieldwire.Mask // non-nil on connections that negotiated a field mask
	ch    chan frameItem

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

// writeLoop feeds the outbound queue to the link's egress batch
// (egress.go). A failed write (including a deadline hit from a
// subscriber that stopped draining the socket) drops the connection;
// the subscriber's retry loop re-establishes the link once it recovers.
func (pc *pubConn) writeLoop() {
	b := newEgressBatch(pc)
	defer b.close()
	for {
		select {
		case <-pc.stop:
			return
		case it := <-pc.ch:
			b.add(pc.ready(it))
			for !b.full() {
				select {
				case more := <-pc.ch:
					b.add(pc.ready(more))
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
		if pc.shm != nil {
			pc.shm.close()
		}
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
	})
}
