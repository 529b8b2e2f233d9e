// Package obs is the middleware's observability substrate: a lock-cheap
// metrics registry with per-topic publisher/subscriber instruments,
// ring-buffer latency histograms, life-cycle tracing glue for
// internal/core, and a leak-detection helper for tests.
//
// The design constraint is the paper's transparency claim: measuring the
// serialization-free fast path must not change it. Every instrument
// update is a single atomic operation on pre-allocated state, so an
// instrumented publish performs zero additional heap allocations; the
// life-cycle trace costs one atomic pointer load when disabled.
package obs

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/core"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a signed instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// SetMax raises the gauge to v if v is larger than the current value
// (monotonic high-water update, e.g. the highest master epoch seen).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PubStats instruments one publisher endpoint.
type PubStats struct {
	Messages Counter // publishes fanned out
	Bytes    Counter // payload bytes handed to the transport
	Drops    Counter // frames dropped on the way to a link, for any reason
	FanOut   Gauge   // current subscriber connections (TCP + in-process)
	Latched  Gauge   // 1 when a latched message is retained
	// DropsOversized is the part of Drops the egress encoder refused:
	// frames above the frame cap of the link they were bound for.
	DropsOversized Counter
}

// SubStats instruments one subscriber.
type SubStats struct {
	Messages   Counter // messages delivered to the callback
	Bytes      Counter // payload bytes delivered
	Drops      Counter // messages dropped by the dispatch queue
	Reconnects Counter // dial retries after a connection failure
	Corrupt    Counter // frames rejected by integrity checks
	Stale      Counter // shm descriptors rejected by generation checks
	// TransportUnavailable counts reconcile passes in which publishers
	// exist for the topic but none is reachable over the subscription's
	// transport mode (e.g. TransportInproc with only remote publishers) —
	// the signal behind the "silent empty subscription" log line.
	TransportUnavailable Counter
	Latency              Histogram // receive/publish → callback-return latency
}

// ShmStats instruments the shared-memory transport, registry-wide: one
// set of gauges per process serves every store and mapper wired to the
// registry.
//
// Fallbacks is the aggregate: every shm-capable path that shipped an
// inline copy instead of a descriptor, or set a link up over TCP. The
// per-reason counters split it by WHY, because "negotiated shm but fell
// back" is a transparency bug (Agnocast's silent-degradation failure
// mode) whose fix depends entirely on the reason: oversized means the
// message exceeds the transport's hard cap (by design), heap_arena means
// the arena predates the store and promotion also failed,
// peer_table_full / remote_peer / old_build / no_queue are
// negotiation-time declines. Rare races (e.g. a Share losing to a
// concurrent lease reap) count only in the aggregate, so the total may
// slightly exceed the reason sum.
//
// BytesShared counts MAPPED extent, which since the v2 strided layout
// is a sparse virtual reservation — physical pages are committed only
// where messages actually wrote.
type ShmStats struct {
	SegmentsMapped  Gauge   // segments currently mmap'd (store + mapper sides)
	BytesShared     Gauge   // bytes of segment extent currently mapped (sparse)
	DescriptorSends Counter // messages delivered as descriptors instead of payloads
	Fallbacks       Counter // shm-capable paths that fell back to TCP (negotiation or per-message)
	LeasesReaped    Counter // crashed/expired subscriber leases reclaimed by publishers
	Promotions      Counter // heap-arena messages copied once into a shared slot at publish

	FallbackOversized     Counter // message capacity above the transport's hard cap
	FallbackHeapArena     Counter // heap-backed arena and publish-time promotion failed
	FallbackPeerTableFull Counter // subscriber declined: no free peer lease slot
	FallbackRemotePeer    Counter // subscriber offered shm but lives on another host/boot
	FallbackOldBuild      Counter // peer speaks an incompatible shm protocol revision
	FallbackNoQueue       Counter // the link's FIFO frame queue could not be created or opened
}

// EgressStats instruments the batched TCP egress path, registry-wide:
// every pubConn write loop wired to the registry feeds the same set, so
// the frames-per-write distribution describes the whole process's
// socket behaviour. Writes counts vectored writev calls (one per
// batch); Frames counts frames shipped inside them, so Frames/Writes >
// 1 is direct evidence batching engaged. Coalesced counts the subset of
// frames small enough that their bytes were copied into the contiguous
// batch scratch instead of travelling as their own iovec.
type EgressStats struct {
	Writes         Counter        // vectored socket writes (one per batch)
	Frames         Counter        // frames shipped across all writes
	Coalesced      Counter        // small frames copied into batch scratch
	FramesPerWrite ValueHistogram // batch sizes, in frames
	BytesPerWrite  ValueHistogram // batch sizes, in bytes
}

// FieldwireStats instruments selective field transmission
// (internal/fieldwire), registry-wide. MaskedSubscriptions counts mask
// negotiations that succeeded (publisher side at accept, subscriber
// side on entering the sparse pump — a process doing both counts both).
// BytesSaved is wire payload bytes NOT sent relative to full frames on
// masked connections. Rejects break down by the stable reason strings
// of fieldwire.RejectReason; DecodeErrors and MaskFallbacks instrument
// the subscriber side (malformed sparse payloads dropped, and
// connections that gave masks up and redialed for full frames).
type FieldwireStats struct {
	MaskedSubscriptions Counter // field masks successfully negotiated
	SparseFrames        Counter // frames shipped as range tables
	FullFrames          Counter // frames shipped whole on masked conns (per-message fallback)
	BytesSaved          Counter // payload bytes elided vs full frames
	MaskRejects         Counter // masks the publisher refused (conn falls back to full frames)

	RejectNoMap      Counter // publisher has no wire map for the type (old build / raw)
	RejectUnmappable Counter // a requested path names no field
	RejectVarTail    Counter // variable-length data nested inside a sequence

	DecodeErrors  Counter // malformed sparse payloads dropped by a subscriber
	MaskFallbacks Counter // subscriber conns that disabled masks and redialed
}

// FanoutStats instruments the sharded egress fan-out plane,
// registry-wide: every publisher endpoint whose connection count
// crosses the sharding threshold feeds the same set. ShardDrops counts
// whole-shard queue overflows — one increment means every subscriber
// behind that shard missed one publish, the sharded analogue of a
// per-connection queue drop.
type FanoutStats struct {
	ActiveShards Gauge   // egress shard loops currently running
	ShardedConns Gauge   // subscriber connections currently served by shards
	Rebalances   Counter // connections migrated between shards
	ShardDrops   Counter // shard-queue overflows (publish dropped for a whole shard)
}

// EgressShardStats instruments one egress shard: its member count and
// the socket traffic its writev loop produced. Instances are minted
// with Registry.EgressShard and live for the registry's lifetime (a
// shard that shuts down zeroes its Conns gauge but keeps its
// counters, so post-mortem snapshots still account for every frame).
type EgressShardStats struct {
	Conns  Gauge   // member connections currently assigned to this shard
	Frames Counter // frames delivered across member connections
	Writes Counter // vectored socket writes issued
	Bytes  Counter // wire bytes written (headers + payloads)
}

// RelayStats instruments relay processes (cmd/rosrelay), registry-wide:
// frames accepted from the origin publisher and re-fanned-out to the
// relay's own subscriber set. Mismatches counts frames the relay
// refused to forward because the origin's declared byte order differs
// from the relay's native one (forwarding would mislabel them).
type RelayStats struct {
	Active     Gauge   // relay pumps currently running
	FramesIn   Counter // frames received from the origin publisher
	BytesIn    Counter // payload bytes received from the origin
	FramesOut  Counter // frames handed to the relay's own egress
	Drops      Counter // frames the relay failed to forward
	Mismatches Counter // frames refused for byte-order mismatch
}

// GraphStats instruments the graph plane (master protocol), registry-
// wide: every RemoteMaster client and MasterServer wired to the
// registry feeds the same set. The client side records reconnects,
// journal replays, resync latency, and the degraded-mode gauge; the
// server side records ghost-client expiries. MalformedLines is shared:
// both the client read loop and the server request loop count protocol
// lines that failed to parse (each side also logs once per connection
// instead of dropping them invisibly).
type GraphStats struct {
	MasterReconnects Counter   // master connections re-established after loss
	Replays          Counter   // journal replays completed against a (re)connected master
	ResyncLatency    Histogram // connection-loss detection → replay complete
	GhostExpiries    Counter   // server: idle clients expired by the liveness watchdog
	MalformedLines   Counter   // protocol lines that failed JSON parsing (both sides)
	// Degraded counts master sessions currently in degraded mode
	// (disconnected, reconnect loop running, calls failing fast). Each
	// RemoteMaster contributes +1 while degraded, so a process with
	// several master clients reads the number of broken sessions.
	Degraded Gauge

	// Warm-standby failover instruments (DESIGN §3.14). Failovers counts
	// client sessions re-established against a DIFFERENT master address
	// than the previous session's (a reconnect to the same master is only
	// a MasterReconnect). FailedCandidates counts master candidates
	// skipped during redial — refused dials, stale-epoch zombies,
	// unpromoted standbys — each also logged once per candidate.
	Failovers        Counter
	FailedCandidates Counter
	// Epoch is the highest master epoch observed: servers publish their
	// own epoch, clients the highest seen in any response. Updated with
	// SetMax so a registry shared between a client and a server reads the
	// cluster's newest epoch.
	Epoch Gauge
	// ReplLastContact is the unix-nanosecond timestamp of the last
	// replication traffic a standby received from its primary (0 when the
	// process is not a follower). Snapshots convert it to
	// replication_lag_ms; a growing lag means the primary has gone silent
	// and the lease clock toward self-promotion is running.
	ReplLastContact Gauge
}

// ServiceStats instruments one service endpoint.
type ServiceStats struct {
	Calls   Counter   // requests served
	Errors  Counter   // requests that failed
	Latency Histogram // request → response latency
}

// Registry is a namespace of per-topic and per-service instruments.
// One mutex guards the instrument maps and the egress-shard list.
// Endpoint constructors look an instrument up once and cache it; every
// later update is an atomic on the instrument itself, so no message
// ever takes the lock.
type Registry struct {
	mu   sync.Mutex
	pubs map[string]*PubStats
	subs map[string]*SubStats
	svcs map[string]*ServiceStats
	// eshards holds the per-shard instruments minted by EgressShard, in
	// mint order.
	eshards []*EgressShardStats

	shm ShmStats
	// egress, fanout, relay and graph live outside mu like shm:
	// instruments are reached through the nil-safe accessors and
	// updated with atomics only.
	egress    EgressStats
	fanout    FanoutStats
	relay     RelayStats
	graph     GraphStats
	fieldwire FieldwireStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		pubs: make(map[string]*PubStats),
		subs: make(map[string]*SubStats),
		svcs: make(map[string]*ServiceStats),
	}
}

// Shm returns the registry's shared-memory transport instruments. Safe
// on a nil registry (returns nil; instrument methods tolerate nil
// receivers and nil structs return zero snapshots).
func (r *Registry) Shm() *ShmStats {
	if r == nil {
		return nil
	}
	return &r.shm
}

// Egress returns the registry's batched-egress instruments. Safe on a
// nil registry (returns nil; instrument methods tolerate nil
// receivers).
func (r *Registry) Egress() *EgressStats {
	if r == nil {
		return nil
	}
	return &r.egress
}

// Fieldwire returns the registry's selective-field-transmission
// instruments. Safe on a nil registry (returns nil; instrument methods
// tolerate nil receivers).
func (r *Registry) Fieldwire() *FieldwireStats {
	if r == nil {
		return nil
	}
	return &r.fieldwire
}

// Fanout returns the registry's sharded fan-out instruments. Safe on a
// nil registry (returns nil; instrument methods tolerate nil
// receivers).
func (r *Registry) Fanout() *FanoutStats {
	if r == nil {
		return nil
	}
	return &r.fanout
}

// Relay returns the registry's relay-tier instruments. Safe on a nil
// registry (returns nil; instrument methods tolerate nil receivers).
func (r *Registry) Relay() *RelayStats {
	if r == nil {
		return nil
	}
	return &r.relay
}

// EgressShard mints a fresh per-shard instrument set and registers it
// for snapshots. Safe on a nil registry (returns nil; instrument
// methods tolerate nil receivers). Shards are expected to be few and
// long-lived — a bounded pool per busy publisher endpoint — so minted
// sets are never reclaimed.
func (r *Registry) EgressShard() *EgressShardStats {
	if r == nil {
		return nil
	}
	s := &EgressShardStats{}
	r.mu.Lock()
	r.eshards = append(r.eshards, s)
	r.mu.Unlock()
	return s
}

// Graph returns the registry's graph-plane instruments. Safe on a nil
// registry (returns nil; instrument methods tolerate nil receivers).
func (r *Registry) Graph() *GraphStats {
	if r == nil {
		return nil
	}
	return &r.graph
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Publisher returns the publisher instruments for topic, creating them
// on first use. Safe on a nil registry (returns nil; all instrument
// methods tolerate nil receivers).
func (r *Registry) Publisher(topic string) *PubStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.pubs[topic]
	if s == nil {
		s = &PubStats{}
		r.pubs[topic] = s
	}
	return s
}

// Subscriber returns the subscriber instruments for topic, creating
// them on first use.
func (r *Registry) Subscriber(topic string) *SubStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.subs[topic]
	if s == nil {
		s = &SubStats{}
		r.subs[topic] = s
	}
	return s
}

// Service returns the service instruments for name, creating them on
// first use.
func (r *Registry) Service(name string) *ServiceStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.svcs[name]
	if s == nil {
		s = &ServiceStats{}
		r.svcs[name] = s
	}
	return s
}

// PubSnapshot is the JSON form of one publisher's instruments.
type PubSnapshot struct {
	Messages       uint64 `json:"messages"`
	Bytes          uint64 `json:"bytes"`
	Drops          uint64 `json:"drops"`
	DropsOversized uint64 `json:"drops_oversized"`
	FanOut         int64  `json:"fan_out"`
	Latched        int64  `json:"latched"`
}

// SubSnapshot is the JSON form of one subscriber's instruments.
type SubSnapshot struct {
	Messages             uint64       `json:"messages"`
	Bytes                uint64       `json:"bytes"`
	Drops                uint64       `json:"drops"`
	Reconnects           uint64       `json:"reconnects"`
	Corrupt              uint64       `json:"corrupt_frames"`
	Stale                uint64       `json:"stale_descriptors"`
	TransportUnavailable uint64       `json:"transport_unavailable"`
	Latency              LatencyStats `json:"latency"`
}

// ShmSnapshot is the JSON form of the shared-memory transport gauges.
type ShmSnapshot struct {
	SegmentsMapped  int64               `json:"segments_mapped"`
	BytesShared     int64               `json:"bytes_shared"`
	DescriptorSends uint64              `json:"descriptor_sends"`
	Fallbacks       uint64              `json:"fallbacks"`
	FallbackReasons ShmFallbackSnapshot `json:"fallbacks_by_reason"`
	Promotions      uint64              `json:"promotions"`
	LeasesReaped    uint64              `json:"leases_reaped"`
}

// ShmFallbackSnapshot breaks the aggregate fallback counter down by
// reason. The aggregate may slightly exceed the sum: rare races (a
// Share losing to a concurrent lease reap) have no dedicated reason.
type ShmFallbackSnapshot struct {
	Oversized     uint64 `json:"oversized"`
	HeapArena     uint64 `json:"heap_arena"`
	PeerTableFull uint64 `json:"peer_table_full"`
	RemotePeer    uint64 `json:"remote_peer"`
	OldBuild      uint64 `json:"old_build"`
	NoQueue       uint64 `json:"no_queue"`
}

// EgressSnapshot is the JSON form of the batched-egress instruments,
// including the sharded fan-out plane and its per-shard breakdown.
type EgressSnapshot struct {
	Writes         uint64         `json:"writes"`
	Frames         uint64         `json:"frames"`
	Coalesced      uint64         `json:"coalesced_frames"`
	FramesPerWrite ValueStats     `json:"frames_per_write"`
	BytesPerWrite  ValueStats     `json:"bytes_per_write"`
	Fanout         FanoutSnapshot `json:"fanout"`
}

// FanoutSnapshot is the JSON form of the sharded fan-out instruments.
type FanoutSnapshot struct {
	ActiveShards int64                 `json:"active_shards"`
	ShardedConns int64                 `json:"sharded_conns"`
	Rebalances   uint64                `json:"rebalances"`
	ShardDrops   uint64                `json:"shard_drops"`
	Shards       []EgressShardSnapshot `json:"shards"`
}

// EgressShardSnapshot is the JSON form of one shard's instruments.
type EgressShardSnapshot struct {
	Conns  int64  `json:"conns"`
	Frames uint64 `json:"frames"`
	Writes uint64 `json:"writes"`
	Bytes  uint64 `json:"bytes"`
}

// FieldwireSnapshot is the JSON form of the selective-field-
// transmission instruments.
type FieldwireSnapshot struct {
	MaskedSubscriptions uint64                  `json:"masked_subscriptions"`
	SparseFrames        uint64                  `json:"sparse_frames"`
	FullFrames          uint64                  `json:"full_frames"`
	BytesSaved          uint64                  `json:"bytes_saved"`
	MaskRejects         uint64                  `json:"mask_rejects"`
	RejectReasons       FieldwireRejectSnapshot `json:"rejects_by_reason"`
	DecodeErrors        uint64                  `json:"decode_errors"`
	MaskFallbacks       uint64                  `json:"mask_fallbacks"`
}

// FieldwireRejectSnapshot breaks mask rejects down by reason (the
// stable strings of fieldwire.RejectReason).
type FieldwireRejectSnapshot struct {
	NoMap      uint64 `json:"no_wire_map"`
	Unmappable uint64 `json:"unmappable_field"`
	VarTail    uint64 `json:"variable_tail"`
}

// RelaySnapshot is the JSON form of the relay-tier instruments.
type RelaySnapshot struct {
	Active     int64  `json:"active"`
	FramesIn   uint64 `json:"frames_in"`
	BytesIn    uint64 `json:"bytes_in"`
	FramesOut  uint64 `json:"frames_out"`
	Drops      uint64 `json:"drops"`
	Mismatches uint64 `json:"mismatches"`
}

// GraphSnapshot is the JSON form of the graph-plane instruments.
type GraphSnapshot struct {
	MasterReconnects uint64       `json:"master_reconnects"`
	Replays          uint64       `json:"replays"`
	Resync           LatencyStats `json:"resync"`
	GhostExpiries    uint64       `json:"ghost_expiries"`
	MalformedLines   uint64       `json:"malformed_lines"`
	Degraded         int64        `json:"degraded"`
	Failovers        uint64       `json:"failovers"`
	FailedCandidates uint64       `json:"failed_candidates"`
	Epoch            int64        `json:"epoch"`
	// ReplicationLagMs is the age, in milliseconds, of the last
	// replication traffic a standby in this process received from its
	// primary; 0 when no follower is running.
	ReplicationLagMs int64 `json:"replication_lag_ms"`
}

// ServiceSnapshot is the JSON form of one service's instruments.
type ServiceSnapshot struct {
	Calls   uint64       `json:"calls"`
	Errors  uint64       `json:"errors"`
	Latency LatencyStats `json:"latency"`
}

// CoreSnapshot is the JSON form of the message manager's life-cycle
// gauges.
type CoreSnapshot struct {
	Allocs         uint64 `json:"allocs"`
	Frees          uint64 `json:"frees"`
	Grows          uint64 `json:"grows"`
	Live           int64  `json:"live"`
	BytesLive      int64  `json:"bytes_live"`
	StateAllocated int64  `json:"state_allocated"`
	StatePublished int64  `json:"state_published"`
	MaxLive        int64  `json:"max_live"`
	MaxBytesLive   int64  `json:"max_bytes_live"`
	Fresh          uint64 `json:"fresh"`
	BytesPooled    int64  `json:"bytes_pooled"`
	LiveGlobal     int    `json:"live_global"`
}

// Snapshot is a point-in-time JSON-serialisable view of a registry plus
// the default message manager's life-cycle counters.
type Snapshot struct {
	Time        time.Time                  `json:"time"`
	Core        CoreSnapshot               `json:"core"`
	Shm         ShmSnapshot                `json:"shm"`
	Egress      EgressSnapshot             `json:"egress"`
	Fieldwire   FieldwireSnapshot          `json:"fieldwire"`
	Relay       RelaySnapshot              `json:"relay"`
	Graph       GraphSnapshot              `json:"graph"`
	Publishers  map[string]PubSnapshot     `json:"publishers"`
	Subscribers map[string]SubSnapshot     `json:"subscribers"`
	Services    map[string]ServiceSnapshot `json:"services"`
}

// Snapshot captures every instrument in the registry and the default
// manager's life-cycle stats.
func (r *Registry) Snapshot() Snapshot {
	st := core.Default().Stats()
	snap := Snapshot{
		Time: time.Now(),
		Core: CoreSnapshot{
			Allocs:         st.Allocs,
			Frees:          st.Frees,
			Grows:          st.Grows,
			Live:           st.Live,
			BytesLive:      st.BytesLive,
			StateAllocated: st.StateAllocated,
			StatePublished: st.StatePublished,
			MaxLive:        st.MaxLive,
			MaxBytesLive:   st.MaxBytesLive,
			Fresh:          st.Fresh,
			BytesPooled:    st.BytesPooled,
			LiveGlobal:     core.LiveMessages(),
		},
		Publishers:  map[string]PubSnapshot{},
		Subscribers: map[string]SubSnapshot{},
		Services:    map[string]ServiceSnapshot{},
	}
	if r == nil {
		return snap
	}
	// Copy the pointer maps and the shard list under the lock and load
	// the atomics outside it, so a snapshot holds the lock only for the
	// copies.
	r.mu.Lock()
	pubs := maps.Clone(r.pubs)
	subs := maps.Clone(r.subs)
	svcs := maps.Clone(r.svcs)
	eshards := slices.Clone(r.eshards)
	r.mu.Unlock()
	snap.Shm = ShmSnapshot{
		SegmentsMapped:  r.shm.SegmentsMapped.Load(),
		BytesShared:     r.shm.BytesShared.Load(),
		DescriptorSends: r.shm.DescriptorSends.Load(),
		Fallbacks:       r.shm.Fallbacks.Load(),
		FallbackReasons: ShmFallbackSnapshot{
			Oversized:     r.shm.FallbackOversized.Load(),
			HeapArena:     r.shm.FallbackHeapArena.Load(),
			PeerTableFull: r.shm.FallbackPeerTableFull.Load(),
			RemotePeer:    r.shm.FallbackRemotePeer.Load(),
			OldBuild:      r.shm.FallbackOldBuild.Load(),
			NoQueue:       r.shm.FallbackNoQueue.Load(),
		},
		Promotions:   r.shm.Promotions.Load(),
		LeasesReaped: r.shm.LeasesReaped.Load(),
	}
	snap.Egress = EgressSnapshot{
		Writes:         r.egress.Writes.Load(),
		Frames:         r.egress.Frames.Load(),
		Coalesced:      r.egress.Coalesced.Load(),
		FramesPerWrite: r.egress.FramesPerWrite.Stats(),
		BytesPerWrite:  r.egress.BytesPerWrite.Stats(),
		Fanout: FanoutSnapshot{
			ActiveShards: r.fanout.ActiveShards.Load(),
			ShardedConns: r.fanout.ShardedConns.Load(),
			Rebalances:   r.fanout.Rebalances.Load(),
			ShardDrops:   r.fanout.ShardDrops.Load(),
			Shards:       []EgressShardSnapshot{},
		},
	}
	for _, s := range eshards {
		snap.Egress.Fanout.Shards = append(snap.Egress.Fanout.Shards, EgressShardSnapshot{
			Conns:  s.Conns.Load(),
			Frames: s.Frames.Load(),
			Writes: s.Writes.Load(),
			Bytes:  s.Bytes.Load(),
		})
	}
	snap.Fieldwire = FieldwireSnapshot{
		MaskedSubscriptions: r.fieldwire.MaskedSubscriptions.Load(),
		SparseFrames:        r.fieldwire.SparseFrames.Load(),
		FullFrames:          r.fieldwire.FullFrames.Load(),
		BytesSaved:          r.fieldwire.BytesSaved.Load(),
		MaskRejects:         r.fieldwire.MaskRejects.Load(),
		RejectReasons: FieldwireRejectSnapshot{
			NoMap:      r.fieldwire.RejectNoMap.Load(),
			Unmappable: r.fieldwire.RejectUnmappable.Load(),
			VarTail:    r.fieldwire.RejectVarTail.Load(),
		},
		DecodeErrors:  r.fieldwire.DecodeErrors.Load(),
		MaskFallbacks: r.fieldwire.MaskFallbacks.Load(),
	}
	snap.Relay = RelaySnapshot{
		Active:     r.relay.Active.Load(),
		FramesIn:   r.relay.FramesIn.Load(),
		BytesIn:    r.relay.BytesIn.Load(),
		FramesOut:  r.relay.FramesOut.Load(),
		Drops:      r.relay.Drops.Load(),
		Mismatches: r.relay.Mismatches.Load(),
	}
	snap.Graph = GraphSnapshot{
		MasterReconnects: r.graph.MasterReconnects.Load(),
		Replays:          r.graph.Replays.Load(),
		Resync:           r.graph.ResyncLatency.Stats(),
		GhostExpiries:    r.graph.GhostExpiries.Load(),
		MalformedLines:   r.graph.MalformedLines.Load(),
		Degraded:         r.graph.Degraded.Load(),
		Failovers:        r.graph.Failovers.Load(),
		FailedCandidates: r.graph.FailedCandidates.Load(),
		Epoch:            r.graph.Epoch.Load(),
	}
	if last := r.graph.ReplLastContact.Load(); last > 0 {
		if lag := (time.Now().UnixNano() - last) / int64(time.Millisecond); lag > 0 {
			snap.Graph.ReplicationLagMs = lag
		}
	}
	for k, v := range pubs {
		snap.Publishers[k] = PubSnapshot{
			Messages:       v.Messages.Load(),
			Bytes:          v.Bytes.Load(),
			Drops:          v.Drops.Load(),
			DropsOversized: v.DropsOversized.Load(),
			FanOut:         v.FanOut.Load(),
			Latched:        v.Latched.Load(),
		}
	}
	for k, v := range subs {
		snap.Subscribers[k] = SubSnapshot{
			Messages:             v.Messages.Load(),
			Bytes:                v.Bytes.Load(),
			Drops:                v.Drops.Load(),
			Reconnects:           v.Reconnects.Load(),
			Corrupt:              v.Corrupt.Load(),
			Stale:                v.Stale.Load(),
			TransportUnavailable: v.TransportUnavailable.Load(),
			Latency:              v.Latency.Stats(),
		}
	}
	for k, v := range svcs {
		snap.Services[k] = ServiceSnapshot{
			Calls:   v.Calls.Load(),
			Errors:  v.Errors.Load(),
			Latency: v.Latency.Stats(),
		}
	}
	return snap
}

// Topics returns the sorted union of topics with publisher or
// subscriber instruments (for CLI display).
func (r *Registry) Topics() []string {
	if r == nil {
		return nil
	}
	set := make(map[string]struct{})
	r.mu.Lock()
	for k := range r.pubs {
		set[k] = struct{}{}
	}
	for k := range r.subs {
		set[k] = struct{}{}
	}
	r.mu.Unlock()
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
