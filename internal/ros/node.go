package ros

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	"rossf/internal/obs"
	"rossf/internal/shm"
)

// DialFunc opens a transport connection to a publisher endpoint. The
// default is plain TCP; experiments substitute a netsim-wrapped dialer to
// model an inter-machine link.
type DialFunc func(addr string) (net.Conn, error)

// nodeConfig collects NewNode options.
type nodeConfig struct {
	master      Master
	listenAddr  string
	noListener  bool
	dial        DialFunc
	customDial  bool
	metrics     *obs.Registry
	metricsSet  bool
	metricsAddr string
	shmStore    *shm.Store
	enableShm   bool
}

// Option configures a Node.
type Option func(*nodeConfig)

// WithMaster selects the graph master (default: a private LocalMaster,
// useful only for self-contained single-node programs; real graphs share
// one).
func WithMaster(m Master) Option {
	return func(c *nodeConfig) { c.master = m }
}

// WithListenAddress sets the TCP address for inbound subscriber
// connections (default "127.0.0.1:0").
func WithListenAddress(addr string) Option {
	return func(c *nodeConfig) { c.listenAddr = addr }
}

// WithoutListener disables the TCP listener; the node can only publish
// to intra-process subscribers and subscribe.
func WithoutListener() Option {
	return func(c *nodeConfig) { c.noListener = true }
}

// WithDialer replaces the subscriber-side transport dialer. A node with
// a custom dialer never offers the shared-memory transport: the dialer
// may tunnel through simulated or remote links, so a dialed address
// says nothing about whether publisher and subscriber share a machine.
func WithDialer(d DialFunc) Option {
	return func(c *nodeConfig) {
		c.dial = d
		c.customDial = true
	}
}

// WithShm enables the shared-memory transport for this node's SFM
// publishers using the process-wide store (shm.Enable): message arenas
// land in mmap-backed segments and same-machine subscribers that offer
// shm receive descriptors instead of payload bytes. Best-effort — if
// the platform cannot back segments the node logs once and serves plain
// TCP, keeping the API transparent.
func WithShm() Option {
	return func(c *nodeConfig) { c.enableShm = true }
}

// WithShmStore is WithShm with an explicit store (for tests and
// processes managing several stores). The caller owns the store's
// lifetime: it must outlive the node and be closed only after every
// message allocated from it has been released. The store only turns
// into zero-copy publishes when it is also installed as the BackingStore
// of the core.Manager the publisher allocates from.
func WithShmStore(s *shm.Store) Option {
	return func(c *nodeConfig) { c.shmStore = s }
}

// WithMetrics selects the observability registry recording this node's
// per-topic and per-service instruments (default obs.Default()). Pass
// nil to disable instrumentation entirely — endpoints then carry nil
// instrument pointers and skip every recording site.
func WithMetrics(r *obs.Registry) Option {
	return func(c *nodeConfig) {
		c.metrics = r
		c.metricsSet = true
	}
}

// WithMetricsAddr starts an HTTP metrics endpoint on addr (e.g.
// "127.0.0.1:0") serving /metrics and /debug/vars (an expvar-style JSON
// snapshot of the node's registry plus the message manager's life-cycle
// gauges) and the standard /debug/pprof profiling handlers. The
// endpoint shuts down with the node; MetricsAddr reports the bound
// address.
func WithMetricsAddr(addr string) Option {
	return func(c *nodeConfig) { c.metricsAddr = addr }
}

// Node is a participant in the graph — the analog of a roscpp
// NodeHandle plus its process-wide connection machinery. Create with
// NewNode, release with Close.
type Node struct {
	name       string
	master     Master
	dial       DialFunc
	customDial bool
	metrics    *obs.Registry // nil = instrumentation disabled
	shmStore   *shm.Store    // nil = shared-memory transport disabled

	listener net.Listener
	addr     string

	metricsLis  net.Listener
	metricsSrv  *http.Server
	metricsAddr string

	mu       sync.Mutex
	pubs     map[string]*pubEndpoint
	subs     map[*Subscriber]struct{}
	services map[string]*serviceEndpoint
	closed   bool

	wg sync.WaitGroup
}

// NewNode creates a node, starts its topic listener (unless disabled),
// and returns it ready to advertise and subscribe.
func NewNode(name string, opts ...Option) (*Node, error) {
	if name == "" {
		return nil, errors.New("ros: node name must not be empty")
	}
	cfg := nodeConfig{
		listenAddr: "127.0.0.1:0",
		dial: func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.master == nil {
		cfg.master = NewLocalMaster()
	}
	if !cfg.metricsSet {
		cfg.metrics = obs.Default()
	}
	if cfg.enableShm && cfg.shmStore == nil {
		s, err := shm.Enable()
		if err != nil {
			log.Printf("ros: node %s: shared-memory transport unavailable (%v); falling back to TCP", name, err)
		} else {
			cfg.shmStore = s
		}
	}
	n := &Node{
		name:       name,
		master:     cfg.master,
		dial:       cfg.dial,
		customDial: cfg.customDial,
		metrics:    cfg.metrics,
		shmStore:   cfg.shmStore,
		pubs:       make(map[string]*pubEndpoint),
		subs:       make(map[*Subscriber]struct{}),
		services:   make(map[string]*serviceEndpoint),
	}
	if !cfg.noListener {
		l, err := net.Listen("tcp", cfg.listenAddr)
		if err != nil {
			return nil, fmt.Errorf("ros: node %s listen: %w", name, err)
		}
		n.listener = l
		n.addr = l.Addr().String()
		n.wg.Add(1)
		go n.acceptLoop()
	}
	if cfg.metricsAddr != "" {
		if err := n.startMetricsServer(cfg.metricsAddr); err != nil {
			if n.listener != nil {
				n.listener.Close()
				n.wg.Wait()
			}
			return nil, err
		}
	}
	return n, nil
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Addr returns the node's topic listener address, or "" if disabled.
func (n *Node) Addr() string { return n.addr }

// Master returns the node's graph master.
func (n *Node) Master() Master { return n.master }

// Metrics returns the node's observability registry (nil when disabled
// via WithMetrics(nil)).
func (n *Node) Metrics() *obs.Registry { return n.metrics }

// MetricsAddr returns the bound address of the HTTP metrics endpoint,
// or "" when WithMetricsAddr was not used.
func (n *Node) MetricsAddr() string { return n.metricsAddr }

// acceptLoop serves inbound subscriber connections.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveSubscriber(conn)
		}()
	}
}

// serveSubscriber performs the server side of the handshake: topic
// subscriptions attach to the topic's endpoint, service calls (header
// carries "service") run their request loop on this goroutine.
func (n *Node) serveSubscriber(conn net.Conn) {
	conn.SetDeadline(nowPlusHandshake())
	req, err := readHeader(conn)
	if err != nil {
		conn.Close()
		return
	}

	if svcName, isService := req[hdrService]; isService {
		n.mu.Lock()
		svc := n.services[svcName]
		n.mu.Unlock()
		if svc == nil {
			refuse(conn, fmt.Sprintf("node %s does not serve %q", n.name, svcName)) //nolint:errcheck // reported to the peer
			conn.Close()
			return
		}
		svc.serveCall(conn, req) //nolint:errcheck // handshake errors already answered the peer
		conn.Close()
		return
	}

	n.mu.Lock()
	ep := n.pubs[req[hdrTopic]]
	n.mu.Unlock()
	if ep == nil {
		refuse(conn, fmt.Sprintf("node %s does not publish topic %q", n.name, req[hdrTopic])) //nolint:errcheck // reported to the peer
		conn.Close()
		return
	}
	if err := ep.acceptConn(conn, req); err != nil {
		conn.Close()
	}
}

// Close shuts the node down: every publisher is unregistered, every
// subscriber detached, all connections closed, and all goroutines
// joined.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	pubs := make([]*pubEndpoint, 0, len(n.pubs))
	for _, p := range n.pubs {
		pubs = append(pubs, p)
	}
	subs := make([]*Subscriber, 0, len(n.subs))
	for s := range n.subs {
		subs = append(subs, s)
	}
	svcs := make([]*serviceEndpoint, 0, len(n.services))
	for _, s := range n.services {
		svcs = append(svcs, s)
	}
	n.mu.Unlock()

	if n.listener != nil {
		n.listener.Close()
	}
	if n.metricsSrv != nil {
		// Close (not just the listener) also hangs up in-flight and
		// keep-alive metrics connections so Close leaves no goroutines.
		n.metricsSrv.Close()
	}
	for _, p := range pubs {
		p.close()
	}
	for _, s := range subs {
		s.Close()
	}
	for _, s := range svcs {
		s.close()
	}
	n.wg.Wait()
	return nil
}

// registerPub attaches an endpoint under its topic.
func (n *Node) registerPub(topic string, ep *pubEndpoint) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("ros: node closed")
	}
	if _, dup := n.pubs[topic]; dup {
		return fmt.Errorf("ros: node %s already advertises %q", n.name, topic)
	}
	n.pubs[topic] = ep
	return nil
}

func (n *Node) unregisterPub(topic string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.pubs, topic)
}

// registerService attaches a service endpoint under its name.
func (n *Node) registerService(name string, ep *serviceEndpoint) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("ros: node closed")
	}
	if _, dup := n.services[name]; dup {
		return fmt.Errorf("ros: node %s already serves %q", n.name, name)
	}
	n.services[name] = ep
	return nil
}

func (n *Node) unregisterService(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.services, name)
}

func (n *Node) registerSub(s *Subscriber) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("ros: node closed")
	}
	n.subs[s] = struct{}{}
	return nil
}

func (n *Node) unregisterSub(s *Subscriber) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.subs, s)
}
