package ros

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// TransportMode selects how a subscriber reaches publishers.
type TransportMode int

const (
	// TransportAuto attaches intra-process when the publisher shares the
	// process, otherwise dials TCP. This is the default.
	TransportAuto TransportMode = iota
	// TransportTCP always dials the publisher's listener, even in the
	// same process — the configuration of the paper's Fig. 13, where pub
	// and sub are separate entities exchanging bytes over loopback.
	TransportTCP
	// TransportInproc only attaches to same-process publishers.
	TransportInproc
	// TransportShm dials publishers like TransportTCP but offers the
	// shared-memory transport in the handshake: same-machine SFM topics
	// then exchange 24-byte descriptors into mmap'd segments instead of
	// payload bytes. Publishers that cannot serve shm — remote host,
	// different boot, no store, old build — transparently fall back to
	// TCP framing on the same connection address. TransportAuto also
	// offers shm for the links it dials; TransportShm additionally skips
	// the intra-process attachment path, forcing the cross-process
	// machinery even inside one process (useful for tests and
	// benchmarks).
	TransportShm
)

// ConnState describes the health of one publisher link, as reported
// through the WithConnState callback — the subscriber-visible
// degradation signal. A link cycles Connected -> Retrying -> Connected
// under transient faults; it reaches GaveUp only when a bounded
// RetryPolicy exhausts its attempts (or the publisher permanently
// refuses the handshake), after which the link is abandoned until the
// master announces the publisher again.
type ConnState int

const (
	// ConnConnected: the handshake completed and frames are flowing.
	ConnConnected ConnState = iota
	// ConnRetrying: the link is down — its peer was lost, or the master
	// withdrew the publisher. The subscriber backs off before the next
	// dial, unless the publisher was withdrawn; either way a link that
	// was Connected reports this once, before any link that replaces it
	// connects (DESIGN §3.10).
	ConnRetrying
	// ConnGaveUp: the retry budget is exhausted or the publisher
	// rejected the handshake; the subscriber will not redial this
	// address unless the master re-announces it.
	ConnGaveUp
)

// String implements fmt.Stringer.
func (s ConnState) String() string {
	switch s {
	case ConnConnected:
		return "connected"
	case ConnRetrying:
		return "retrying"
	case ConnGaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("ConnState(%d)", int(s))
	}
}

// RetryPolicy bounds the subscriber's reconnect loop: exponential
// backoff between InitialBackoff and MaxBackoff with multiplicative
// growth and randomized jitter. Zero fields take the defaults of
// DefaultRetryPolicy.
type RetryPolicy struct {
	// InitialBackoff is the delay before the first redial.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Multiplier is the per-attempt growth factor (>= 1).
	Multiplier float64
	// Jitter randomizes each delay within ±Jitter fraction of its
	// nominal value, de-synchronizing reconnect storms (0..1).
	Jitter float64
	// MaxAttempts is the number of consecutive failed dials before the
	// link reports ConnGaveUp and is abandoned; 0 retries until the
	// subscription closes or the master withdraws the publisher.
	MaxAttempts int
}

// DefaultRetryPolicy is the reconnect schedule used unless WithRetry
// overrides it: 50ms doubling to a 2s ceiling with ±50% jitter,
// retrying for as long as the publisher remains registered.
var DefaultRetryPolicy = RetryPolicy{
	InitialBackoff: 50 * time.Millisecond,
	MaxBackoff:     2 * time.Second,
	Multiplier:     2,
	Jitter:         0.5,
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = DefaultRetryPolicy.InitialBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultRetryPolicy.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = DefaultRetryPolicy.Jitter
	}
	return p
}

// backoff returns the jittered delay before attempt n (1-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := float64(p.InitialBackoff) * math.Pow(p.Multiplier, float64(attempt-1))
	if d > float64(p.MaxBackoff) || math.IsInf(d, 1) || math.IsNaN(d) {
		d = float64(p.MaxBackoff)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rand.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// SubOption configures Subscribe.
type SubOption func(*subConfig)

type subConfig struct {
	transport TransportMode
	manager   *core.Manager
	queueSize int
	retry     RetryPolicy
	connState func(addr string, state ConnState)
	noRelay   bool
	fields    []string // field mask offered at handshake (see WithFields)
}

// WithTransport selects the subscriber transport mode.
func WithTransport(m TransportMode) SubOption {
	return func(c *subConfig) { c.transport = m }
}

// WithSubscriberQueue dispatches callbacks asynchronously through a
// bounded queue of depth n, dropping the oldest pending message when
// full — roscpp's subscribe queue_size semantics. The default (0) runs
// callbacks synchronously on the reader goroutine.
func WithSubscriberQueue(n int) SubOption {
	return func(c *subConfig) {
		if n > 0 {
			c.queueSize = n
		}
	}
}

// WithManager selects the arena manager for received serialization-free
// messages (default core.Default()).
func WithManager(m *core.Manager) SubOption {
	return func(c *subConfig) { c.manager = m }
}

// WithRetry replaces the reconnect schedule (default
// DefaultRetryPolicy). Zero fields keep their defaults.
func WithRetry(p RetryPolicy) SubOption {
	return func(c *subConfig) { c.retry = p }
}

// WithConnState registers a callback observing each publisher link's
// health transitions (Connected, Retrying, GaveUp), keyed by the
// publisher's address. The callback runs on transport goroutines, one
// report at a time, and must not block; use it to degrade gracefully —
// switch to a fallback sensor, raise an alert — instead of silently
// losing data.
func WithConnState(cb func(addr string, state ConnState)) SubOption {
	return func(c *subConfig) { c.connState = cb }
}

// WithoutRelay makes the subscription ignore relay-tier endpoints and
// attach straight to origin publishers. Relays use it for their own
// upstream subscription (a relay feeding itself from another relay
// would loop); applications use it when they need the origin's
// latency rather than the relay's capacity.
func WithoutRelay() SubOption {
	return func(c *subConfig) { c.noRelay = true }
}

// WithFields declares the dotted field paths this subscription reads
// (e.g. "header.stamp", "header.frame_id"). On SFM topics whose
// publisher can serve the mask, only those fields' bytes travel the
// wire; every other field of the delivered message reads as its typed
// zero value, because the receiver zero-fills what did not travel — an
// unrequested field is an empty value, never garbage. Publishers that
// cannot serve the mask deliver full frames — the subscription always
// sees correct data for the fields it asked for. Regular (serializing)
// topics reject the option. Which links get a mask is decided in
// capability.go, sparse frames are encoded by the egress batch and
// consumed by the pump (DESIGN §3.12).
func WithFields(paths ...string) SubOption {
	return func(c *subConfig) { c.fields = append([]string(nil), paths...) }
}

// Subscriber is a topic subscription. Create with Subscribe, release
// with Close.
type Subscriber struct {
	node     *Node
	topic    string
	typeName string
	md5      string
	sfm      bool // the topic's wire regime, fixed by the message type

	cancelWatch func()
	local       inprocTarget   // same-process delivery; nil on raw subscriptions (TCP only)
	decoders    decoderSet     // what the runtime can pump; the handshake offer derives from it
	queue       *dispatchQueue // nil = synchronous callbacks
	retry       RetryPolicy
	transport   TransportMode
	connState   func(addr string, state ConnState)
	noRelay     bool
	fields      []string      // field mask offered at handshake
	stats       *obs.SubStats // nil when the node's metrics are disabled

	corrupt atomic.Uint64 // frames rejected by checksum
	resyncs atomic.Uint64 // bytes skipped resynchronizing damaged streams

	// stateMu orders link-state reports: a link's loss and the start of
	// the links that replace it, so the loss is reported first.
	stateMu sync.Mutex

	mu     sync.Mutex
	conns  map[string]*subConn // keyed by publisher address
	inproc map[*pubEndpoint]struct{}
	closed bool
	// loggedUnavailable de-duplicates the "publishers exist but none is
	// reachable over this transport" warning (satellite of the shm work:
	// a TransportInproc/TransportShm subscription facing only
	// unreachable publishers used to stay silently empty).
	loggedUnavailable bool

	wg sync.WaitGroup
}

// CorruptFrames reports how many received frames failed their checksum
// and were dropped instead of being delivered.
func (s *Subscriber) CorruptFrames() uint64 { return s.corrupt.Load() }

// ResyncedBytes reports how many stream bytes were discarded while
// hunting for a frame boundary after damage.
func (s *Subscriber) ResyncedBytes() uint64 { return s.resyncs.Load() }

// notifyState reports a link transition to the WithConnState callback,
// if any.
func (s *Subscriber) notifyState(addr string, state ConnState) {
	if s.connState != nil {
		s.connState(addr, state)
	}
}

// linkState reports a transition of a live link; it reports nothing and
// returns false once the link is closed — a withdrawn link's loss is
// reported by the reconcile that withdrew it (onPublishers).
func (s *Subscriber) linkState(addr string, sc *subConn, state ConnState) bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if sc.isClosed() {
		return false
	}
	sc.up = state == ConnConnected
	s.notifyState(addr, state)
	return true
}

func (s *Subscriber) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// delivery is one message on its way to a callback: whose callback, the
// message (typed, or a raw frame that is valid during the callback
// only), the arena reference the delivery owns (SFM), and what the
// instruments record. It travels by value — handed straight to the
// callback on a synchronous subscription, through the queue's channel on
// an asynchronous one — so delivering allocates nothing.
type delivery struct {
	to    receiver
	msg   any
	frame []byte
	ref   core.Ref
	size  int       // bytes the subscription's instruments count
	t0    time.Time // receive time; zero when the subscription has no instruments
}

// receiver invokes a subscription's user callback on a delivery.
type receiver interface {
	receive(d delivery)
}

// dispatch routes one delivery through the queue, or runs it inline
// when the subscription is synchronous.
func (s *Subscriber) dispatch(d delivery) {
	// t0 is captured only when instruments exist, so an uninstrumented
	// hand-over takes no timestamp and records nothing.
	if s.stats != nil {
		d.t0 = time.Now()
	}
	if s.queue == nil {
		s.run(d)
		return
	}
	s.queue.enqueue(d)
}

// run invokes the callback, then releases the delivery's reference (the
// release-exactly-once discipline shared by every receive path) and
// records it.
func (s *Subscriber) run(d delivery) {
	d.to.receive(d)
	d.ref.Release() //nolint:errcheck // regular and raw deliveries hold the zero Ref
	if st := s.stats; st != nil {
		st.Messages.Inc()
		st.Bytes.Add(uint64(d.size))
		st.Latency.Observe(time.Since(d.t0))
	}
}

// drop disposes of a delivery that will not reach the callback: evicted
// from a full queue, or queued when the subscription closed.
func (s *Subscriber) drop(d delivery) {
	d.ref.Release() //nolint:errcheck // as in run
	if st := s.stats; st != nil {
		st.Drops.Inc()
	}
}

// dispatchQueue decouples callbacks from reader goroutines with
// drop-oldest overflow.
type dispatchQueue struct {
	sub      *Subscriber
	ch       chan delivery
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newDispatchQueue(s *Subscriber, depth int) *dispatchQueue {
	q := &dispatchQueue{
		sub:  s,
		ch:   make(chan delivery, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go q.loop()
	return q
}

func (q *dispatchQueue) loop() {
	defer close(q.done)
	for {
		select {
		case <-q.stop:
			return
		case d := <-q.ch:
			q.sub.run(d)
		}
	}
}

// enqueue mirrors pubConn.enqueue's drop-oldest discipline, including
// the post-send recheck against a concurrent close.
func (q *dispatchQueue) enqueue(d delivery) {
	for {
		select {
		case <-q.stop:
			q.sub.drop(d)
			return
		case q.ch <- d:
			select {
			case <-q.stop:
				select {
				case old := <-q.ch:
					q.sub.drop(old)
				default:
				}
			default:
			}
			return
		default:
		}
		select {
		case old := <-q.ch:
			q.sub.drop(old)
		default:
		}
	}
}

func (q *dispatchQueue) close() {
	q.stopOnce.Do(func() {
		close(q.stop)
		<-q.done
		for {
			select {
			case d := <-q.ch:
				q.sub.drop(d)
			default:
				return
			}
		}
	})
}

// decoderSet holds a runtime's frame-decoder constructors, one per link
// mode, each building the decoder for one established connection from
// the publisher's reply header. A nil constructor means the runtime has
// no decoder for that mode, and its subscriptions never offer the
// capability that would negotiate it.
type decoderSet struct {
	plain  func(reply map[string]string) frameDecoder
	shm    func(mp *shm.Mapper) frameDecoder
	sparse func(reply map[string]string, link *subConn) frameDecoder
}

func (d decoderSet) caps() capability {
	var c capability
	if d.shm != nil {
		c |= capShm
	}
	if d.sparse != nil {
		c |= capFields
	}
	return c
}

// Subscribe registers a callback for every message arriving on topic —
// the analog of NodeHandle::subscribe. The message type decides the
// regime:
//
//   - regular messages: each frame is de-serialized into a fresh *T (the
//     callback's Image::ConstPtr);
//   - serialization-free messages: the received buffer itself becomes
//     the *T (the paper's dummy de-serialization routine, Fig. 9). The
//     message is released when the callback returns; call core.Retain
//     inside the callback to keep it alive longer.
//
// The callback runs on the connection's reader goroutine; a slow
// callback applies backpressure on that one connection, as in roscpp
// with queue size 0.
func Subscribe[T any](n *Node, topic string, cb func(*T), opts ...SubOption) (*Subscriber, error) {
	typeName, md5, ok := typeInfoOf[T]()
	if !ok {
		return nil, fmt.Errorf("ros: type %T does not implement ros.Message", new(T))
	}
	cfg := subConfig{manager: core.Default()}
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case isSFMType[T]():
		layout, err := core.LayoutOf[T]()
		if err != nil {
			return nil, fmt.Errorf("ros: subscribe %s: %w", typeName, err)
		}
		s := newSubscriber(n, topic, typeName, md5, true, &cfg)
		rt := &sfmRuntime[T]{sub: s, cb: cb, layout: layout, mgr: cfg.manager}
		return s.start(rt, rt.decoders())
	case isSerializableType[T]():
		if len(cfg.fields) > 0 {
			return nil, fmt.Errorf("ros: subscribe %s: WithFields requires a serialization-free message type", typeName)
		}
		s := newSubscriber(n, topic, typeName, md5, false, &cfg)
		rt := &ros1Runtime[T]{sub: s, cb: cb}
		return s.start(rt, rt.decoders())
	}
	return nil, fmt.Errorf("ros: type %T implements neither Serializable nor SFMessage", new(T))
}

// newSubscriber builds the type-independent half of a subscription; the
// caller builds the type-specific runtime around it and calls start.
func newSubscriber(n *Node, topic, typeName, md5 string, sfm bool, cfg *subConfig) *Subscriber {
	s := &Subscriber{
		node:      n,
		topic:     topic,
		typeName:  typeName,
		md5:       md5,
		sfm:       sfm,
		retry:     cfg.retry.withDefaults(),
		transport: cfg.transport,
		connState: cfg.connState,
		noRelay:   cfg.noRelay,
		fields:    cfg.fields,
		stats:     n.metrics.Subscriber(topic),
		conns:     make(map[string]*subConn),
		inproc:    make(map[*pubEndpoint]struct{}),
	}
	if cfg.queueSize > 0 {
		s.queue = newDispatchQueue(s, cfg.queueSize)
	}
	return s
}

// start attaches the runtime — its same-process target (nil when the
// subscription is TCP only) and its decoder set — registers the
// subscription with its node, and begins reconciling it against the
// master's publisher list.
func (s *Subscriber) start(local inprocTarget, decoders decoderSet) (*Subscriber, error) {
	s.local, s.decoders = local, decoders
	if err := s.node.registerSub(s); err != nil {
		return nil, err
	}
	cancel, err := s.node.master.WatchPublishers(s.topic, s.typeName, s.md5, s.onPublishers)
	if err != nil {
		s.node.unregisterSub(s)
		return nil, err
	}
	s.cancelWatch = cancel
	return s, nil
}

// Topic returns the subscribed topic name.
func (s *Subscriber) Topic() string { return s.topic }

// NumPublishers returns the number of currently attached publishers.
func (s *Subscriber) NumPublishers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns) + len(s.inproc)
}

// onPublishers reconciles the attachment set with the master's current
// publisher list. It must not block (master callback contract), so new
// dials happen on fresh goroutines.
func (s *Subscriber) onPublishers(pubs []PublisherInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	mode := s.transport

	// Relay delegation: when relay-tier endpoints exist and this
	// subscription may use TCP and has not opted out, attach to exactly
	// ONE relay — chosen by a stable hash so a fleet of subscribers
	// spreads across the relays — and to nothing else. A relay mirrors
	// every origin publisher of the topic, so attaching to an origin (or
	// a second relay) as well would deliver duplicates. In every other
	// case relay endpoints are ignored entirely and the classic per-
	// publisher reconciliation below applies.
	var relays []string
	if mode != TransportInproc && !s.noRelay {
		for _, p := range pubs {
			if p.Relay && p.Addr != "" {
				relays = append(relays, p.Addr)
			}
		}
	}
	useRelay := len(relays) > 0

	wantTCP := make(map[string]bool)
	wantInproc := make(map[*pubEndpoint]bool)
	for _, p := range pubs {
		if p.Relay || useRelay {
			continue
		}
		useInproc := p.direct != nil && mode != TransportTCP && mode != TransportShm
		if useInproc {
			wantInproc[p.direct] = true
			continue
		}
		if p.Addr != "" && mode != TransportInproc {
			wantTCP[p.Addr] = true
		}
	}
	if useRelay {
		sort.Strings(relays)
		wantTCP[relays[stableSpread(s.node.name+"|"+s.topic)%uint32(len(relays))]] = true
	}

	// Publishers exist, but none is reachable over this subscription's
	// transport mode (e.g. TransportInproc with only remote publishers,
	// or TransportShm/TCP facing listener-less in-process publishers):
	// without this warning the subscription sits silently empty forever.
	if len(pubs) > 0 && len(wantTCP) == 0 && len(wantInproc) == 0 {
		if s.stats != nil {
			s.stats.TransportUnavailable.Inc()
		}
		if !s.loggedUnavailable {
			s.loggedUnavailable = true
			log.Printf("ros: subscription %q: %d publisher(s) registered but none reachable over transport mode %d; delivering nothing",
				s.topic, len(pubs), mode)
		}
	}

	// Attach new intra-process publishers.
	for ep := range wantInproc {
		if _, ok := s.inproc[ep]; ok {
			continue
		}
		if err := ep.attachInproc(s.local, s.sfm); err == nil {
			s.inproc[ep] = struct{}{}
		}
	}
	// Detach vanished ones.
	for ep := range s.inproc {
		if !wantInproc[ep] {
			ep.detachInproc(s.local)
			delete(s.inproc, ep)
		}
	}

	// Drop vanished TCP publishers, then dial new ones — after reporting
	// the loss of every dropped link that was up, so a failover reads
	// Retrying before Connected. That runs on its own goroutine: the
	// state callback must not run on the master's notify path.
	var dropped []*subConn
	var dropAddrs []string
	for addr, sc := range s.conns {
		if !wantTCP[addr] {
			sc.close()
			delete(s.conns, addr)
			dropped, dropAddrs = append(dropped, sc), append(dropAddrs, addr)
		}
	}
	var dials []func()
	for addr := range wantTCP {
		if _, ok := s.conns[addr]; ok {
			continue
		}
		sc := newSubConn()
		s.conns[addr] = sc
		s.wg.Add(1)
		dials = append(dials, func() {
			defer s.wg.Done()
			s.dialAndRun(addr, sc)
		})
	}
	if len(dropped) == 0 {
		for _, dial := range dials {
			go dial()
		}
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.stateMu.Lock()
		for i, sc := range dropped {
			if sc.up {
				sc.up = false
				s.notifyState(dropAddrs[i], ConnRetrying)
			}
		}
		s.stateMu.Unlock()
		for _, dial := range dials {
			go dial()
		}
	}()
}

// stableSpread hashes a subscription identity for deterministic relay
// selection: the same subscriber always picks the same relay (no
// connection churn across reconcile passes) while different
// subscribers spread across the relay set.
func stableSpread(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return h.Sum32()
}

// dialAndRun owns one publisher link for its whole lifetime: it dials,
// runs the frame pump, and on failure redials under the subscription's
// RetryPolicy — bounded exponential backoff with jitter — until the
// link closes (subscription closed or publisher withdrawn), the
// publisher permanently refuses the handshake, or the retry budget runs
// out (ConnGaveUp).
func (s *Subscriber) dialAndRun(addr string, sc *subConn) {
	defer func() {
		s.mu.Lock()
		if s.conns[addr] == sc {
			delete(s.conns, addr)
		}
		s.mu.Unlock()
	}()

	attempt := 0
	for {
		if sc.isClosed() || s.isClosed() {
			return
		}
		connected, permanent := s.runOnce(addr, sc)
		if connected {
			attempt = 0
		}
		if sc.isClosed() || s.isClosed() {
			return
		}
		if permanent {
			// The publisher answered the handshake with an error (type,
			// md5, or format mismatch): redialing cannot fix it.
			s.linkState(addr, sc, ConnGaveUp)
			return
		}
		attempt++
		if s.retry.MaxAttempts > 0 && attempt > s.retry.MaxAttempts {
			s.linkState(addr, sc, ConnGaveUp)
			return
		}
		if s.stats != nil {
			s.stats.Reconnects.Inc()
		}
		if !s.linkState(addr, sc, ConnRetrying) {
			return
		}
		if !sc.sleep(s.retry.backoff(attempt)) {
			return
		}
	}
}

// runOnce performs one dial + handshake + frame-pump cycle. connected
// reports whether the handshake completed (resetting the backoff);
// permanent reports a handshake rejection that no retry can cure.
func (s *Subscriber) runOnce(addr string, sc *subConn) (connected, permanent bool) {
	conn, err := s.node.dial(addr)
	if err != nil {
		return false, false
	}
	defer conn.Close()
	o := s.offer(sc)
	if !sc.bind(conn, o.queue) {
		o.settle(false)
		return false, false
	}
	reply, err := exchange(conn, subscribeHeader(s.topic, s.typeName, s.md5, s.node.name, s.sfm, o))
	mode := replyMode(reply) // plain for the nil reply of a failed exchange
	o.settle(mode == modeShm)
	if err != nil {
		return false, errors.Is(err, errRefused)
	}
	var dec frameDecoder
	var frames io.Reader = conn
	maxLen := maxFrameSize
	switch mode {
	case modeShm:
		defer o.queue.Close()
		mp, err := s.openShm(o, reply)
		if err != nil {
			// The publisher selected shm but this side cannot stand it up
			// (never offered, incompatible segment layout, mapping failure,
			// malformed reply — all shapes of a protocol-revision
			// mismatch): decline shm on this link and redial; the next
			// handshake offers TCP only.
			sc.decline(capShm)
			s.node.noteReject(reject{cap: capShm, reason: reasonOldBuild, detail: err})
			return false, false
		}
		defer mp.Close()
		// From here on the publisher writes every frame to the queue; the
		// connection has done its part and only signals liveness.
		dec, frames, maxLen = s.decoders.shm(mp), o.queue, maxTaggedFrameSize
	case modeMasked:
		if s.decoders.sparse == nil {
			// The publisher accepted a mask this runtime cannot decode — a
			// protocol-revision mismatch. Redial mask-less.
			sc.decline(capFields)
			return false, false
		}
		dec = s.decoders.sparse(reply, sc)
	default:
		dec = s.decoders.plain(reply)
	}
	if !s.linkState(addr, sc, ConnConnected) {
		return false, false // withdrawn during the handshake: it never was up
	}
	newPump(frames, maxLen, s).run(dec) //nolint:errcheck // every exit is a redial
	return true, false
}

// Close cancels the subscription, closes connections, and joins all
// goroutines.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*subConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	inproc := make([]*pubEndpoint, 0, len(s.inproc))
	for ep := range s.inproc {
		inproc = append(inproc, ep)
	}
	s.conns = make(map[string]*subConn)
	s.inproc = make(map[*pubEndpoint]struct{})
	s.mu.Unlock()

	if s.cancelWatch != nil {
		s.cancelWatch()
	}
	for _, ep := range inproc {
		ep.detachInproc(s.local)
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	if s.queue != nil {
		s.queue.close()
	}
	s.node.unregisterSub(s)
}

// subConn tracks one outbound link so Close can interrupt a blocked
// read or a backoff sleep. Across reconnect attempts the same subConn
// is rebound to each new connection, and to the frame queue offered
// with it (nil when the dial offers no shm).
type subConn struct {
	mu       sync.Mutex
	conn     net.Conn
	queue    *os.File
	closed   bool
	up       bool       // reported Connected and not yet down; guarded by Subscriber.stateMu
	declined capability // capabilities this link stopped offering after they failed on it
	done     chan struct{}
}

func newSubConn() *subConn {
	return &subConn{done: make(chan struct{})}
}

func (c *subConn) bind(conn net.Conn, queue *os.File) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.conn, c.queue = conn, queue
	return true
}

func (c *subConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// decline stops this link from offering c on future redials.
func (c *subConn) decline(caps capability) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.declined |= caps
}

func (c *subConn) declinedCaps() capability {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.declined
}

// sleep waits for d or until the link closes; it reports false when the
// link closed (abandon the retry loop).
func (c *subConn) sleep(d time.Duration) bool {
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return false
	case <-t.C:
		return true
	}
}

func (c *subConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.done)
	if c.conn != nil {
		c.conn.Close()
	}
	if c.queue != nil {
		c.queue.Close() // the pump of an shm link is parked here, not on conn
	}
}

// ros1Runtime receives regular serialized messages.
type ros1Runtime[T any] struct {
	sub *Subscriber
	cb  func(*T)
}

func (r *ros1Runtime[T]) decoders() decoderSet {
	return decoderSet{plain: func(map[string]string) frameDecoder { return r }}
}

// decode deserializes straight out of the batch buffer: deliverFrame is
// done with the bytes before the next call on the pump.
func (r *ros1Runtime[T]) decode(rx *pump, n int, crc uint32) (bool, error) {
	frame, ok, err := rx.frame(n, crc)
	if ok && err == nil {
		r.deliverFrame(frame, true)
	}
	return ok, err
}

func (r *ros1Runtime[T]) deliverFrame(frame []byte, _ bool) {
	m := new(T)
	sz, ok := any(m).(Serializable)
	if !ok {
		return
	}
	rd := wire.NewReader(frame)
	if err := sz.DeserializeROS(rd); err != nil {
		return // a malformed frame is dropped, as roscpp does
	}
	r.sub.dispatch(delivery{to: r, msg: m, size: len(frame)})
}

func (r *ros1Runtime[T]) receive(d delivery) { r.cb(d.msg.(*T)) }

// deliverShared is never reached (attachInproc refuses a regime
// mismatch); releasing anyway keeps release-exactly-once.
func (r *ros1Runtime[T]) deliverShared(_ any, ref core.Ref, _ int) { ref.Release() }

// sfmRuntime receives serialization-free messages: frames are adopted as
// live messages with zero transformation.
type sfmRuntime[T any] struct {
	sub    *Subscriber
	cb     func(*T)
	layout *core.Layout
	mgr    *core.Manager
}

func (r *sfmRuntime[T]) decoders() decoderSet {
	link := func(reply map[string]string) *sfmConn[T] {
		return &sfmConn[T]{r: r, srcLittle: reply[hdrEndian] != endianBig}
	}
	return decoderSet{
		plain: func(reply map[string]string) frameDecoder { return link(reply) },
		shm: func(mp *shm.Mapper) frameDecoder {
			return &sfmTaggedDecoder[T]{sfmConn: sfmConn[T]{r: r, srcLittle: core.NativeLittleEndian()}, mp: mp}
		},
		sparse: func(reply map[string]string, sc *subConn) frameDecoder {
			return &sparseDecoder{sink: link(reply), link: sc, fw: r.sub.node.metrics.Fieldwire()}
		},
	}
}

func (r *sfmRuntime[T]) receive(d delivery) { r.cb(d.msg.(*T)) }

// deliverShared takes a message shared by a same-process publisher. This
// path is the SFM publish fast path whose allocation count the
// zero-overhead test pins.
func (r *sfmRuntime[T]) deliverShared(m any, ref core.Ref, size int) {
	if _, ok := m.(*T); !ok {
		ref.Release()
		return
	}
	r.sub.dispatch(delivery{to: r, msg: m, ref: ref, size: size})
}

// deliverFrame adopts a frame a raw SFM publisher (rosbag play, a relay)
// hands over in-process. The bytes stay the publisher's — they may be
// fanned out to other targets or latched — so they are copied into an
// arena first and then adopted exactly like a frame off a socket.
func (r *sfmRuntime[T]) deliverFrame(frame []byte, srcLittle bool) {
	buf := r.mgr.GetBuffer(len(frame))
	arena := buf.Bytes()[:len(frame)]
	copy(arena, frame)
	c := sfmConn[T]{r: r, srcLittle: srcLittle}
	c.adopt(buf, arena, len(frame)) // an unconvertible frame is dropped
}
