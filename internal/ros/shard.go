package ros

import (
	"net"
	"sync"
	"time"

	"rossf/internal/obs"
	"rossf/internal/wire"
)

// Sharded egress fan-out (DESIGN.md §3.10).
//
// A publisher endpoint with thousands of TCP subscribers cannot afford
// one write loop per connection: every publish becomes O(subscribers)
// channel sends and goroutine wakeups before a single byte moves. The
// shard pool bounds that cost. Subscriber connections are partitioned
// across a small fixed pool of egress shards; a publish enqueues ONE
// item per shard (O(shards) wakeups), and each shard's loop encodes the
// pending run of frames once — headers, coalesced small payloads, the
// publish-time CRC — then replays the encoded vectors to every member
// connection as one vectored write each. The arena is referenced once
// per shard instead of once per subscriber, and the checksum is shared
// by all of them.
//
// Membership changes ride the same queues as data. A join targets the
// least-loaded shard and happens under the endpoint lock, atomically
// with the publish snapshot, so the latch/ordering guarantees of the
// classic path carry over. A migration between shards (rebalancing
// after departures) travels as a control item through the SOURCE
// shard's queue, which serialises it with that shard's in-flight
// deliveries; the delivery gate below makes the handoff exact.
//
// Exactly-once gate: every broadcast item carries the publish sequence,
// and every sharded connection remembers lastSeq, the newest sequence
// already written to it. A shard delivers only items with seq >
// lastSeq. Before delivering a run, the shard "claims" it by advancing
// doneSeq (under its lock) past the run's last sequence; a migration is
// admitted only while target.doneSeq <= conn.lastSeq, i.e. while the
// target cannot have delivered anything the connection has not seen and
// cannot have missed anything it still needs. A migration that arrives
// too late is simply retried by the next rebalance pass. Together the
// gate and the claim give at-most-once delivery per sequence with no
// gaps introduced by the move itself (queue-overflow drops remain
// legal, as on the classic path).
const (
	// defaultShardCount is the pool size used by auto mode and by
	// WithEgressShards(0). Shards are write loops, not CPUs: each one
	// multiplexes hundreds of sockets, so a small pool is enough to keep
	// the kernel busy while bounding per-publish wakeups.
	defaultShardCount = 8

	// autoShardThreshold is the TCP-connection count at which an
	// auto-mode endpoint brings up its shard pool; connections beyond
	// this many are served by shards while the first ones keep their
	// dedicated write loops.
	autoShardThreshold = 64

	// Shard batches run deeper than the classic per-connection caps
	// (maxBatchFrames/maxBatchBytes): one encode is amortized across
	// hundreds of member writes, so at small payloads the batch depth
	// directly sets the syscall count per subscriber. A batch only
	// grows while the queue is backlogged — light traffic still
	// flushes the moment the queue runs dry — so the deeper caps cost
	// nothing in idle latency.
	shardMaxBatchFrames = 64
	shardMaxBatchBytes  = 512 << 10
)

// shardItem is one entry in a shard's queue: a broadcast frame (seq set,
// the common case), a targeted frame for one member (latched delivery
// to a late joiner), or a membership migration.
type shardItem struct {
	seq  uint64
	it   frameItem
	only *pubConn   // non-nil: deliver to this member only, bypassing the seq gate
	move *shardMove // non-nil: migration control item (it is empty)
}

// shardMove asks the shard that dequeues it to hand conn over to
// another shard in the same pool.
type shardMove struct {
	c  *pubConn
	to *egressShard
}

// egressShardPool is the bounded set of shards serving one endpoint's
// sharded connections.
type egressShardPool struct {
	ep     *pubEndpoint
	shards []*egressShard
	fanout *obs.FanoutStats // nil when metrics are disabled
}

func newEgressShardPool(ep *pubEndpoint, n int) *egressShardPool {
	p := &egressShardPool{ep: ep, fanout: ep.node.metrics.Fanout()}
	for i := 0; i < n; i++ {
		s := &egressShard{
			ep:     ep,
			pool:   p,
			ch:     make(chan shardItem, shardQueueDepth(ep.queueSize)),
			stop:   make(chan struct{}),
			stats:  ep.node.metrics.EgressShard(),
			egress: ep.node.metrics.Egress(),
		}
		p.shards = append(p.shards, s)
		p.fanout.ActiveShards.Add(1)
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			s.run()
		}()
	}
	return p
}

// shardQueueDepth sizes a shard's queue from the endpoint's queue_size.
// A shard drop loses one publish for every member at once, so the floor
// keeps small per-subscriber queue_size values (the default is 16) from
// turning into whole-shard losses under short bursts.
func shardQueueDepth(queueSize int) int {
	const floor = 64
	if queueSize < floor {
		return floor
	}
	return queueSize
}

// join assigns a new connection to the least-loaded shard. Caller holds
// ep.mu, which orders the join against publish snapshots: the
// connection's lastSeq starts at the current publish sequence, so it
// receives exactly the publishes that follow.
func (p *egressShardPool) join(pc *pubConn) *egressShard {
	best := p.shards[0]
	bestN := best.memberCount()
	for _, s := range p.shards[1:] {
		if n := s.memberCount(); n < bestN {
			best, bestN = s, n
		}
	}
	pc.lastSeq = p.ep.pubSeq
	best.mu.Lock()
	best.members = append(best.members, pc)
	best.mu.Unlock()
	best.stats.Conns.Add(1)
	p.fanout.ShardedConns.Add(1)
	return best
}

// memberCount sums live members across shards.
func (p *egressShardPool) memberCount() int {
	n := 0
	for _, s := range p.shards {
		n += s.memberCount()
	}
	return n
}

// stopAll closes every shard's stop channel; the loops drain their
// queues and tear their members down on the way out (ep.wg tracks
// them).
func (p *egressShardPool) stopAll() {
	for _, s := range p.shards {
		close(s.stop)
	}
}

// egressShard is one writev loop multiplexing a subset of the
// endpoint's subscriber connections.
type egressShard struct {
	ep     *pubEndpoint
	pool   *egressShardPool
	ch     chan shardItem
	stop   chan struct{}
	stats  *obs.EgressShardStats // nil when metrics are disabled
	egress *obs.EgressStats      // nil when metrics are disabled

	mu      sync.Mutex
	members []*pubConn
	// doneSeq is the highest broadcast sequence this shard has claimed
	// for delivery; guarded by mu. See the exactly-once gate above.
	doneSeq uint64
}

func (s *egressShard) memberCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// removeMember detaches pc if it is (still) a member, reporting whether
// it was.
func (s *egressShard) removeMember(pc *pubConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, m := range s.members {
		if m == pc {
			last := len(s.members) - 1
			s.members[i] = s.members[last]
			s.members[last] = nil
			s.members = s.members[:last]
			return true
		}
	}
	return false
}

// enqueue adds an item, dropping the oldest queued entry when full —
// the shard-level analogue of ROS queue_size drop-oldest. Callers hold
// ep.mu, which keeps per-shard sequence order intact.
func (s *egressShard) enqueue(it shardItem) {
	for {
		select {
		case s.ch <- it:
			return
		default:
		}
		select {
		case old := <-s.ch:
			s.dropQueued(old)
		default:
		}
	}
}

// dropQueued disposes of an item displaced by overflow. A dropped
// migration leaves the connection where it is (the rebalancer will ask
// again); a dropped broadcast is one publish lost for every member at
// once.
func (s *egressShard) dropQueued(old shardItem) {
	if old.move != nil {
		return
	}
	old.it.release()
	if old.only != nil {
		if st := s.ep.stats; st != nil {
			st.Drops.Inc()
		}
		return
	}
	s.pool.fanout.ShardDrops.Inc()
	if st := s.ep.stats; st != nil {
		st.Drops.Add(uint64(s.memberCount()))
	}
}

// run is the shard loop: block for one item, then service the queue
// greedily — exactly the classic write loop's adaptive batching, but
// the batch is encoded once and fanned out to every member.
func (s *egressShard) run() {
	defer s.shutdown()
	b := newShardBatch(s)
	defer b.close()
	for {
		select {
		case <-s.stop:
			return
		case it := <-s.ch:
			s.service(it, b)
		}
	}
}

// service processes the queue until it runs dry, flushing the pending
// broadcast run before any control item so queue order is preserved on
// the wire.
func (s *egressShard) service(cur shardItem, b *shardBatch) {
	for {
		switch {
		case cur.move != nil:
			s.flushRun(b)
			s.applyMove(cur.move)
		case cur.only != nil:
			s.flushRun(b)
			s.deliverTargeted(cur, b)
		default:
			b.add(cur)
			if b.full() {
				s.flushRun(b)
			}
		}
		select {
		case cur = <-s.ch:
		case <-s.stop:
			s.flushRun(b)
			return
		default:
			s.flushRun(b)
			return
		}
	}
}

// flushRun claims the pending run, encodes it once, and writes it to
// every member. Failed members are dropped after the run (never
// mid-iteration) and trigger a rebalance check.
func (s *egressShard) flushRun(b *shardBatch) {
	if b.n == 0 {
		return
	}
	// Claim before delivering: once doneSeq covers the run, a migration
	// admitted by another shard can no longer race these sequences.
	s.mu.Lock()
	if b.lastSeq > s.doneSeq {
		s.doneSeq = b.lastSeq
	}
	members := append(b.memberScratch[:0], s.members...)
	s.mu.Unlock()
	b.memberScratch = members[:0]

	var failed []*pubConn
	if len(members) > 0 {
		b.encode()
		for _, c := range members {
			if !b.writeTo(c) {
				failed = append(failed, c)
			}
		}
	}
	b.reset()
	if len(failed) > 0 {
		for _, c := range failed {
			s.ep.dropShardConn(s, c)
		}
		s.ep.maybeRebalance()
	}
}

// deliverTargeted writes one frame to one member (latched delivery to a
// late joiner). The seq gate is bypassed and lastSeq untouched: the
// latch carries an old sequence by definition. Join-time enqueue order
// guarantees the target is still a member here unless it already failed
// — a migration for it can only sit LATER in this queue.
func (s *egressShard) deliverTargeted(cur shardItem, b *shardBatch) {
	c := cur.only
	s.mu.Lock()
	member := false
	for _, m := range s.members {
		if m == c {
			member = true
			break
		}
	}
	s.mu.Unlock()
	if !member {
		cur.it.release()
		return
	}
	p := cur.it.data
	crc := cur.it.crc
	if !cur.it.crcOK {
		crc = wire.Checksum(p)
	}
	var hdr [wire.FrameHeaderSize]byte
	wire.PutFrameHeader(hdr[:], len(p), crc)
	if c.writeTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	b.out = append(b.vecScratch[:0], hdr[:], p)
	_, err := b.out.WriteTo(c.conn)
	b.out = nil
	wb := wire.FrameHeaderSize + len(p)
	s.stats.Writes.Inc()
	s.stats.Frames.Inc()
	s.stats.Bytes.Add(uint64(wb))
	if st := s.egress; st != nil {
		st.Writes.Inc()
		st.Frames.Inc()
		st.FramesPerWrite.Observe(1)
		st.BytesPerWrite.Observe(int64(wb))
	}
	cur.it.release()
	if err != nil {
		s.ep.dropShardConn(s, c)
		s.ep.maybeRebalance()
	}
}

// applyMove hands a member over to another shard, admitting the move
// only while the exactly-once gate holds (see the package comment). A
// rejected move is left for a later rebalance pass.
func (s *egressShard) applyMove(mv *shardMove) {
	c, t := mv.c, mv.to
	if t == s {
		return
	}
	s.mu.Lock()
	member := false
	for _, m := range s.members {
		if m == c {
			member = true
			break
		}
	}
	s.mu.Unlock()
	if !member {
		return // already dropped or moved
	}
	t.mu.Lock()
	ok := t.doneSeq <= c.lastSeq
	if ok {
		t.members = append(t.members, c)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	s.removeMember(c)
	s.stats.Conns.Add(-1)
	t.stats.Conns.Add(1)
	s.pool.fanout.Rebalances.Inc()
}

// shutdown drains the queue and tears down the members after the loop
// has exited (so nothing races the channel), releasing every queued
// reference.
func (s *egressShard) shutdown() {
	for {
		select {
		case it := <-s.ch:
			if it.move == nil {
				it.it.release()
			}
			continue
		default:
		}
		break
	}
	s.mu.Lock()
	members := s.members
	s.members = nil
	s.mu.Unlock()
	for _, c := range members {
		c.teardown()
	}
	s.stats.Conns.Set(0)
	s.pool.fanout.ShardedConns.Add(int64(-len(members)))
	s.pool.fanout.ActiveShards.Add(-1)
}

// shardSpan records where one frame's encoded form lives, so a
// just-migrated member (whose previous shard already wrote part of the
// run) can receive a filtered subset without re-encoding.
type shardSpan struct {
	hdr     []byte // header bytes; for coalesced frames, header+payload
	payload []byte // nil for coalesced frames
	wire    int    // wire bytes of this frame
}

// shardBatch is a shard's reusable encode-once state: the same
// fixed-capacity storage discipline as egressBatch, plus the per-frame
// spans and the sequence bounds the delivery gate needs. Sharded
// connections never negotiate shm, so framing is always untagged.
type shardBatch struct {
	writeTimeout time.Duration
	stats        *obs.EgressShardStats
	egress       *obs.EgressStats

	items [shardMaxBatchFrames]shardItem
	spans [shardMaxBatchFrames]shardSpan
	n     int
	bytes int
	// firstSeq/lastSeq bound the run's sequences (items arrive in
	// order).
	firstSeq, lastSeq uint64

	coalesced int
	wireBytes int

	// tmpl is the encoded run as write vectors: consecutive coalesced
	// frames merged into single scratch spans, large frames as
	// header+payload pairs. Each member write copies the slice headers
	// into vecScratch (WriteTo consumes its argument).
	tmpl       [][]byte
	tmplStore  [2 * shardMaxBatchFrames][]byte
	vecScratch [2 * shardMaxBatchFrames][]byte
	hdrBuf     [shardMaxBatchFrames * wire.FrameHeaderSize]byte
	scratch    *[]byte
	out        net.Buffers

	memberScratch []*pubConn
}

func newShardBatch(s *egressShard) *shardBatch {
	return &shardBatch{
		writeTimeout: s.ep.writeTimeout,
		stats:        s.stats,
		egress:       s.egress,
	}
}

func (b *shardBatch) full() bool {
	return b.n >= shardMaxBatchFrames || b.bytes >= shardMaxBatchBytes
}

func (b *shardBatch) add(it shardItem) {
	if b.n == 0 {
		b.firstSeq = it.seq
	}
	b.lastSeq = it.seq
	b.items[b.n] = it
	b.n++
	b.bytes += len(it.it.data)
}

// encode renders the run once: headers and small payloads into the
// pooled scratch (merged runs), large payloads as zero-copy vectors
// straight from their arenas.
func (b *shardBatch) encode() {
	tmpl := b.tmplStore[:0]
	hdrs := b.hdrBuf[:0]
	var sc []byte
	if b.scratch != nil {
		sc = (*b.scratch)[:0]
	}
	runStart := -1
	b.coalesced = 0
	b.wireBytes = 0
	for i := 0; i < b.n; i++ {
		it := &b.items[i].it
		p := it.data
		crc := it.crc
		if !it.crcOK {
			crc = wire.Checksum(p)
		}
		w := wire.FrameHeaderSize + len(p)
		b.wireBytes += w
		if len(p) <= coalesceThreshold {
			if b.scratch == nil {
				b.scratch = egressScratchPool.Get().(*[]byte)
				sc = (*b.scratch)[:0]
			}
			if runStart < 0 {
				runStart = len(sc)
			}
			off := len(sc)
			sc = wire.AppendFrameHeader(sc, len(p), crc)
			sc = append(sc, p...)
			b.spans[i] = shardSpan{hdr: sc[off:len(sc):len(sc)], wire: w}
			b.coalesced++
			continue
		}
		if runStart >= 0 {
			tmpl = append(tmpl, sc[runStart:len(sc):len(sc)])
			runStart = -1
		}
		h := len(hdrs)
		hdrs = wire.AppendFrameHeader(hdrs, len(p), crc)
		b.spans[i] = shardSpan{hdr: hdrs[h:len(hdrs):len(hdrs)], payload: p, wire: w}
		tmpl = append(tmpl, b.spans[i].hdr, p)
	}
	if runStart >= 0 {
		tmpl = append(tmpl, sc[runStart:len(sc):len(sc)])
	}
	b.tmpl = tmpl
}

// writeTo ships the encoded run to one member as a single vectored
// write, honouring the delivery gate. It reports whether the
// connection is still usable.
func (b *shardBatch) writeTo(c *pubConn) bool {
	frames := b.n
	wireBytes := b.wireBytes
	coalesced := b.coalesced
	var vecs net.Buffers
	if c.lastSeq < b.firstSeq {
		vecs = append(b.vecScratch[:0], b.tmpl...)
	} else {
		// Just-migrated member: its previous shard already delivered a
		// prefix of this run. Ship only the unseen suffix.
		vecs = b.vecScratch[:0]
		frames, wireBytes, coalesced = 0, 0, 0
		for i := 0; i < b.n; i++ {
			if b.items[i].seq <= c.lastSeq {
				continue
			}
			sp := &b.spans[i]
			vecs = append(vecs, sp.hdr)
			if sp.payload != nil {
				vecs = append(vecs, sp.payload)
			} else {
				coalesced++
			}
			frames++
			wireBytes += sp.wire
		}
	}
	c.lastSeq = b.lastSeq
	if frames == 0 {
		return true
	}
	if b.writeTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(b.writeTimeout))
	}
	b.out = vecs
	_, err := b.out.WriteTo(c.conn)
	b.out = nil
	b.stats.Writes.Inc()
	b.stats.Frames.Add(uint64(frames))
	b.stats.Bytes.Add(uint64(wireBytes))
	if st := b.egress; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(frames))
		st.Coalesced.Add(uint64(coalesced))
		st.FramesPerWrite.Observe(int64(frames))
		st.BytesPerWrite.Observe(int64(wireBytes))
	}
	return err == nil
}

// reset releases the run's items and drops payload references so a
// quiet shard doesn't pin the last batch's arenas.
func (b *shardBatch) reset() {
	for i := range b.tmplStore {
		b.tmplStore[i] = nil
		b.vecScratch[i] = nil
	}
	b.tmpl = nil
	for i := 0; i < b.n; i++ {
		b.items[i].it.release()
		b.items[i] = shardItem{}
		b.spans[i] = shardSpan{}
	}
	b.n = 0
	b.bytes = 0
}

// close returns pooled storage; the batch must be empty.
func (b *shardBatch) close() {
	if b.scratch != nil {
		egressScratchPool.Put(b.scratch)
		b.scratch = nil
	}
}
