package ros

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrTypeMismatch reports a topic being used with two different message
// types or definitions.
var ErrTypeMismatch = errors.New("ros: topic type mismatch")

// PublisherInfo describes one advertised publisher endpoint. Its JSON
// form is the master protocol's.
type PublisherInfo struct {
	NodeName string `json:"node"`
	Addr     string `json:"addr"` // "host:port" of the publisher's topic listener; "" for inproc-only
	TypeName string `json:"type"`
	MD5      string `json:"md5"`
	// Relay marks a relay-tier endpoint (cmd/rosrelay): a process that
	// re-publishes the origin's frames to take fan-out load off it.
	// Subscribers that see relay publishers for a topic attach to exactly
	// one relay instead of the origin (unless they opt out with
	// WithoutRelay); relays themselves subscribe with WithoutRelay.
	Relay bool `json:"relay,omitempty"`

	// direct is set when the publisher lives in this process (LocalMaster
	// only); subscribers attach to it without a socket — the intra-process
	// IPC category. Remote masters never populate it.
	direct *pubEndpoint
}

// ServiceInfo describes one registered service server.
type ServiceInfo struct {
	NodeName string
	Addr     string // the serving node's listener address
	ReqType  string
	RespType string
	MD5      string // combined request/response checksum
}

// Master is the graph name service: publishers register their endpoints
// per topic, subscribers learn about them (including late-arriving ones)
// through a watch callback, and service servers register under unique
// names.
type Master interface {
	// RegisterPublisher announces a publisher. The returned func
	// unregisters it.
	RegisterPublisher(topic string, info PublisherInfo) (unregister func(), err error)
	// WatchPublishers delivers the current publisher set immediately and
	// again on every change, until the returned cancel func is called.
	// The callback must not block.
	WatchPublishers(topic, typeName, md5 string, cb func([]PublisherInfo)) (cancel func(), err error)
	// RegisterService announces a service server; a name can have at
	// most one server at a time.
	RegisterService(name string, info ServiceInfo) (unregister func(), err error)
	// LookupService resolves a service name.
	LookupService(name string) (ServiceInfo, bool, error)
}

// masterShardCount stripes the topic table; power of two so the index
// is a mask. Matches the obs registry's stripe count: both tables face
// the same 10k-topic contention profile.
const masterShardCount = 16

// masterShard is one stripe of the topic table: its own lock plus the
// topics whose names hash here. Register/watch/unregister on a topic
// touch only its stripe, so distinct topics never contend.
type masterShard struct {
	mu     sync.Mutex
	topics map[string]*topicState
}

// masterShardIndex stripes a topic name with FNV-1a (inlined so lookup
// allocates nothing).
func masterShardIndex(key string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return h & (masterShardCount - 1)
}

// LocalMaster is the in-process Master used by single-process graphs and
// tests. cmd/rosmaster wraps it with a TCP protocol for multi-process
// graphs. The topic table is hash-striped so concurrent registrations
// and watches on distinct topics proceed in parallel; services keep
// their own small lock. Introspection (Topics, TopicsInfo) merges the
// stripes and sorts, so tool output is identical to the single-lock
// layout's.
type LocalMaster struct {
	shards [masterShardCount]masterShard

	svcMu    sync.Mutex
	services map[string]ServiceInfo
}

// shardFor returns the stripe owning a topic name.
func (m *LocalMaster) shardFor(topic string) *masterShard {
	return &m.shards[masterShardIndex(topic)]
}

type topicState struct {
	typeName string
	md5      string
	pubs     map[int64]PublisherInfo
	watchers map[int64]func([]PublisherInfo)
	nextID   int64
}

var _ Master = (*LocalMaster)(nil)

// NewLocalMaster returns an empty in-process master.
func NewLocalMaster() *LocalMaster {
	m := &LocalMaster{services: make(map[string]ServiceInfo)}
	for i := range m.shards {
		m.shards[i].topics = make(map[string]*topicState)
	}
	return m
}

// RegisterService implements Master. Duplicate registrations are
// refused (in ROS the newer server silently replaces the older one; we
// prefer the explicit error).
func (m *LocalMaster) RegisterService(name string, info ServiceInfo) (func(), error) {
	m.svcMu.Lock()
	defer m.svcMu.Unlock()
	if prev, dup := m.services[name]; dup {
		return nil, fmt.Errorf("ros: service %q already served by node %s", name, prev.NodeName)
	}
	m.services[name] = info
	return func() {
		m.svcMu.Lock()
		defer m.svcMu.Unlock()
		if cur, ok := m.services[name]; ok && cur == info {
			delete(m.services, name)
		}
	}, nil
}

// LookupService implements Master.
func (m *LocalMaster) LookupService(name string) (ServiceInfo, bool, error) {
	m.svcMu.Lock()
	defer m.svcMu.Unlock()
	info, ok := m.services[name]
	return info, ok, nil
}

// topic resolves (or creates) a topic's state. Callers hold the stripe
// lock returned by shardFor(name).
func (sh *masterShard) topic(name, typeName, md5 string) (*topicState, error) {
	ts, ok := sh.topics[name]
	if !ok {
		ts = &topicState{
			typeName: typeName,
			md5:      md5,
			pubs:     make(map[int64]PublisherInfo),
			watchers: make(map[int64]func([]PublisherInfo)),
		}
		sh.topics[name] = ts
		return ts, nil
	}
	if ts.typeName != typeName || ts.md5 != md5 {
		return nil, fmt.Errorf("%w: topic %q is %s (%s), requested %s (%s)",
			ErrTypeMismatch, name, ts.typeName, ts.md5, typeName, md5)
	}
	return ts, nil
}

// snapshot returns the sorted publisher list. Callers hold the owning
// stripe's lock.
func (ts *topicState) snapshot() []PublisherInfo {
	out := make([]PublisherInfo, 0, len(ts.pubs))
	for _, p := range ts.pubs {
		out = append(out, p)
	}
	sortPubs(out)
	return out
}

// sortPubs orders a publisher set as every snapshot is: by node name,
// then address.
func sortPubs(pubs []PublisherInfo) {
	slices.SortFunc(pubs, func(a, b PublisherInfo) int {
		return cmp.Or(strings.Compare(a.NodeName, b.NodeName), strings.Compare(a.Addr, b.Addr))
	})
}

// notify fans the current snapshot out to all watchers. Callers hold
// the owning stripe's lock; callbacks must not block.
func (ts *topicState) notify() {
	snap := ts.snapshot()
	for _, cb := range ts.watchers {
		cb(snap)
	}
}

// CheckTopic validates (and reserves) a topic's type binding without
// registering anything. The master protocol server uses it to report
// type mismatches before acknowledging a watch.
func (m *LocalMaster) CheckTopic(topic, typeName, md5 string) error {
	sh := m.shardFor(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, err := sh.topic(topic, typeName, md5)
	return err
}

// RegisterPublisher implements Master.
func (m *LocalMaster) RegisterPublisher(topic string, info PublisherInfo) (func(), error) {
	sh := m.shardFor(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts, err := sh.topic(topic, info.TypeName, info.MD5)
	if err != nil {
		return nil, err
	}
	id := ts.nextID
	ts.nextID++
	ts.pubs[id] = info
	ts.notify()
	return func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		delete(ts.pubs, id)
		ts.notify()
	}, nil
}

// WatchPublishers implements Master.
func (m *LocalMaster) WatchPublishers(topic, typeName, md5 string, cb func([]PublisherInfo)) (func(), error) {
	sh := m.shardFor(topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts, err := sh.topic(topic, typeName, md5)
	if err != nil {
		return nil, err
	}
	id := ts.nextID
	ts.nextID++
	ts.watchers[id] = cb
	cb(ts.snapshot())
	return func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		delete(ts.watchers, id)
	}, nil
}

// Topics returns the names of all known topics, sorted (for
// introspection tools).
func (m *LocalMaster) Topics() []string {
	var out []string
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for name := range sh.topics {
			out = append(out, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// TopicInfo summarizes one topic for introspection tools (rostopic). Its
// JSON form is the master protocol's.
type TopicInfo struct {
	Name          string `json:"name"`
	TypeName      string `json:"type"`
	MD5           string `json:"md5"`
	NumPublishers int    `json:"pubs"`
}

// ScanHolds measures, for each stripe, how long an introspection scan
// (the TopicsInfo walk) holds that stripe's lock while registrations
// and watches hashing to the same stripe wait. The largest entry bounds
// the stall any single graph operation can see behind introspection;
// the single-lock table this replaced held one lock across the whole
// walk. The contention bench (rossf-bench ingress) compares the two.
func (m *LocalMaster) ScanHolds() []time.Duration {
	out := make([]time.Duration, 0, masterShardCount)
	infos := make([]TopicInfo, 0, m.topicCount())
	for i := range m.shards {
		sh := &m.shards[i]
		t0 := time.Now()
		sh.mu.Lock()
		for name, ts := range sh.topics {
			infos = append(infos, TopicInfo{
				Name:          name,
				TypeName:      ts.typeName,
				MD5:           ts.md5,
				NumPublishers: len(ts.pubs),
			})
		}
		sh.mu.Unlock()
		out = append(out, time.Since(t0))
	}
	return out
}

// topicCount sums the stripe table sizes (each stripe under its own
// brief lock) so introspection output can be pre-sized before any
// copying hold begins — no stripe's lock hold pays for a realloc.
func (m *LocalMaster) topicCount() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.topics)
		sh.mu.Unlock()
	}
	return n
}

// TopicsInfo returns all topics with their bindings, sorted by name.
func (m *LocalMaster) TopicsInfo() []TopicInfo {
	out := make([]TopicInfo, 0, m.topicCount())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for name, ts := range sh.topics {
			out = append(out, TopicInfo{
				Name:          name,
				TypeName:      ts.typeName,
				MD5:           ts.md5,
				NumPublishers: len(ts.pubs),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
