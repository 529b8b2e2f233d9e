package ros

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
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

// LocalMaster is the in-process Master used by single-process graphs and
// tests. cmd/rosmaster wraps it with a TCP protocol for multi-process
// graphs. One table lock guards the topic map for get-or-create only;
// each topic's own lock guards its publishers and watchers and is held
// while its watchers are notified, so a topic's pushes stay in order and
// a slow watcher stalls registrations on its own topic only. TopicsInfo
// reads every topic's publisher count under that topic's lock, so it
// does wait behind a slow watcher; Topics does not. Services keep their
// own small lock.
type LocalMaster struct {
	mu     sync.Mutex
	topics map[string]*topicState

	svcMu    sync.Mutex
	services map[string]ServiceInfo
}

// topicState is one topic's registrations. Topics are never deleted,
// and typeName/md5 are fixed when the topic is created, so they are
// read without the lock.
type topicState struct {
	typeName string
	md5      string

	mu       sync.Mutex
	pubs     map[int64]PublisherInfo
	watchers map[int64]func([]PublisherInfo)
	nextID   int64
}

var _ Master = (*LocalMaster)(nil)

// NewLocalMaster returns an empty in-process master.
func NewLocalMaster() *LocalMaster {
	return &LocalMaster{
		topics:   make(map[string]*topicState),
		services: make(map[string]ServiceInfo),
	}
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

// topic resolves (or creates) a topic's state and checks its type
// binding.
func (m *LocalMaster) topic(name, typeName, md5 string) (*topicState, error) {
	m.mu.Lock()
	ts, ok := m.topics[name]
	if !ok {
		ts = &topicState{
			typeName: typeName,
			md5:      md5,
			pubs:     make(map[int64]PublisherInfo),
			watchers: make(map[int64]func([]PublisherInfo)),
		}
		m.topics[name] = ts
	}
	m.mu.Unlock()
	if ts.typeName != typeName || ts.md5 != md5 {
		return nil, fmt.Errorf("%w: topic %q is %s (%s), requested %s (%s)",
			ErrTypeMismatch, name, ts.typeName, ts.md5, typeName, md5)
	}
	return ts, nil
}

// snapshot returns the sorted publisher list. Callers hold ts.mu.
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
// ts.mu; callbacks must not block.
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
	_, err := m.topic(topic, typeName, md5)
	return err
}

// RegisterPublisher implements Master.
func (m *LocalMaster) RegisterPublisher(topic string, info PublisherInfo) (func(), error) {
	ts, err := m.topic(topic, info.TypeName, info.MD5)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	id := ts.nextID
	ts.nextID++
	ts.pubs[id] = info
	ts.notify()
	return func() {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		delete(ts.pubs, id)
		ts.notify()
	}, nil
}

// WatchPublishers implements Master.
func (m *LocalMaster) WatchPublishers(topic, typeName, md5 string, cb func([]PublisherInfo)) (func(), error) {
	ts, err := m.topic(topic, typeName, md5)
	if err != nil {
		return nil, err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	id := ts.nextID
	ts.nextID++
	ts.watchers[id] = cb
	cb(ts.snapshot())
	return func() {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		delete(ts.watchers, id)
	}, nil
}

// Topics returns the names of all known topics, sorted (for
// introspection tools).
func (m *LocalMaster) Topics() []string {
	m.mu.Lock()
	out := slices.Collect(maps.Keys(m.topics))
	m.mu.Unlock()
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

// TopicsInfo returns all topics with their bindings, sorted by name.
func (m *LocalMaster) TopicsInfo() []TopicInfo {
	m.mu.Lock()
	topics := maps.Clone(m.topics)
	m.mu.Unlock()
	out := make([]TopicInfo, 0, len(topics))
	for name, ts := range topics {
		ts.mu.Lock()
		n := len(ts.pubs)
		ts.mu.Unlock()
		out = append(out, TopicInfo{Name: name, TypeName: ts.typeName, MD5: ts.md5, NumPublishers: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
