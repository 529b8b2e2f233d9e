package ros

import (
	"slices"
	"sync"

	"rossf/internal/obs"
)

// Sharded egress fan-out (DESIGN.md §3.10).
//
// A publisher endpoint with thousands of TCP subscribers cannot afford
// one write loop per connection: every publish becomes O(subscribers)
// channel sends and goroutine wakeups before a single byte moves. The
// shard pool bounds that cost. Subscriber connections are partitioned
// across a small fixed pool of egress shards; a publish enqueues ONE
// item per shard (O(shards) wakeups), and each shard's loop encodes the
// pending run once in an egress batch (egress.go) and writes it to every
// member as one vectored write each. The arena is referenced once per
// shard instead of once per subscriber, and the checksum is shared by
// all of them.
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
//
// When to shard is the endpoint's call alone, from the one thing it can
// observe, its connection count; there is no option. With few
// subscribers a pool buys nothing measurable — at one subscriber a
// publish wakes every shard to write one socket — so the pool comes up
// at autoShardThreshold and stays for the endpoint's life
// (EXPERIMENTS.md, "The publisher alone decides when to shard").
const (
	// defaultShardCount is the pool size. Shards are write loops, not
	// CPUs: each one multiplexes hundreds of sockets, so a small pool is
	// enough to keep the kernel busy while bounding per-publish wakeups.
	defaultShardCount = 8

	// autoShardThreshold is the TCP-connection count at which an
	// endpoint brings up its shard pool; connections beyond this many
	// are served by shards while the first ones keep their dedicated
	// write loops.
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

	// shardQueueFloor is the least depth of a shard's queue, which is
	// otherwise the endpoint's queue_size. A shard drop loses one publish
	// for every member at once, so the floor keeps small per-subscriber
	// queue_size values (the default is 16) from turning into whole-shard
	// losses under short bursts.
	shardQueueFloor = 64
)

// shardPolicy is when an endpoint brings up its shard pool (once at
// connections are attached) and how many shards the pool gets.
type shardPolicy struct{ at, n int }

// defaultShardPolicy is every endpoint's policy; only tests lower it.
var defaultShardPolicy = shardPolicy{at: autoShardThreshold, n: defaultShardCount}

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
			ep:    ep,
			pool:  p,
			ch:    make(chan shardItem, max(ep.queueSize, shardQueueFloor)),
			stop:  make(chan struct{}),
			stats: ep.node.metrics.EgressShard(),
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
	ep    *pubEndpoint
	pool  *egressShardPool
	ch    chan shardItem
	stop  chan struct{}
	stats *obs.EgressShardStats // nil when metrics are disabled

	mu      sync.Mutex
	members []*pubConn
	// doneSeq is the highest broadcast sequence this shard has claimed
	// for delivery; guarded by mu. See the exactly-once gate above.
	doneSeq uint64

	// seqs holds the publish sequence of each item in the pending batch,
	// and memberScratch the members a run is written to; only the shard's
	// loop touches either.
	seqs          [shardMaxBatchFrames]uint64
	memberScratch []*pubConn
}

func (s *egressShard) memberCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// hasMember reports whether pc is (still) a member.
func (s *egressShard) hasMember(pc *pubConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Contains(s.members, pc)
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

// newShardBatch makes a shard's batch: plain framing — sharded links
// never negotiate shm or a mask — at the deeper shard caps, written to
// each member instead of to one sink.
func newShardBatch(s *egressShard) *egressBatch {
	b := &egressBatch{writeTimeout: s.ep.writeTimeout, ep: s.ep, stats: s.ep.node.metrics.Egress(), shard: s.stats}
	return b.size(shardMaxBatchFrames, shardMaxBatchBytes)
}

// service processes the queue until it runs dry, flushing the pending
// broadcast run before any control item so queue order is preserved on
// the wire.
func (s *egressShard) service(cur shardItem, b *egressBatch) {
	for {
		switch {
		case cur.move != nil:
			s.flushRun(b)
			s.applyMove(cur.move)
		case cur.only != nil:
			s.flushRun(b)
			s.deliverTargeted(cur, b)
		default:
			s.seqs[b.n] = cur.seq
			b.add(cur.it)
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
// every member — all of it to a member that has none of it, the unseen
// suffix to one that just migrated in after its previous shard wrote a
// prefix. Failed members are dropped after the run (never
// mid-iteration) and trigger a rebalance check.
func (s *egressShard) flushRun(b *egressBatch) {
	if b.n == 0 {
		return
	}
	last := s.seqs[b.n-1] // items arrive in sequence order
	// Claim before delivering: once doneSeq covers the run, a migration
	// admitted by another shard can no longer race these sequences.
	s.mu.Lock()
	if last > s.doneSeq {
		s.doneSeq = last
	}
	members := append(s.memberScratch[:0], s.members...)
	s.mu.Unlock()
	s.memberScratch = members[:0]

	var failed []*pubConn
	if len(members) > 0 {
		b.encode(len(members))
		for _, c := range members {
			from, _ := slices.BinarySearch(s.seqs[:b.n], c.lastSeq+1) // the first frame c has not seen
			c.lastSeq = last
			if !b.writeTo(c.conn, from) {
				failed = append(failed, c)
			}
		}
	}
	b.reset()
	if len(failed) > 0 {
		s.drop(failed...)
	}
}

// deliverTargeted writes one frame to one member (latched delivery to a
// late joiner) as a one-item batch. The seq gate is bypassed and lastSeq
// untouched: the latch carries an old sequence by definition. Join-time
// enqueue order guarantees the target is still a member here unless it
// already failed — a migration for it can only sit LATER in this queue.
func (s *egressShard) deliverTargeted(cur shardItem, b *egressBatch) {
	c := cur.only
	if !s.hasMember(c) {
		cur.it.release()
		return
	}
	b.add(cur.it)
	b.encode(1)
	ok := b.writeTo(c.conn, 0)
	b.reset()
	if !ok {
		s.drop(c)
	}
}

// drop detaches members whose write failed, tears them down and lets
// the pool rebalance. Only the shard's own goroutine writes to its
// members, so no other delivery to them can be in flight.
func (s *egressShard) drop(failed ...*pubConn) {
	for _, c := range failed {
		if s.removeMember(c) {
			s.stats.Conns.Add(-1)
			s.pool.fanout.ShardedConns.Add(-1)
		}
		c.teardown()
	}
	s.ep.maybeRebalance()
}

// applyMove hands a member over to another shard, admitting the move
// only while the exactly-once gate holds (see the package comment). A
// rejected move is left for a later rebalance pass.
func (s *egressShard) applyMove(mv *shardMove) {
	c, t := mv.c, mv.to
	if t == s || !s.hasMember(c) {
		return // nothing to move, or already dropped or moved
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
