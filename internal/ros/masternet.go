package ros

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/obs"
)

// The master protocol (cmd/rosmaster) is newline-delimited JSON over one
// persistent TCP connection per client:
//
//	client -> server  {"op":"regpub","id":1,"topic":"t","node":"n","addr":"a","type":"y","md5":"m"}
//	                  {"op":"unregpub","id":2,"handle":7}
//	                  {"op":"watch","id":3,"topic":"t","type":"y","md5":"m"}
//	                  {"op":"ping","id":4}                              (liveness heartbeat)
//	server -> client  {"op":"ok","id":1,"handle":7}
//	                  {"op":"err","id":1,"msg":"...","code":"type_mismatch"}
//	                  {"op":"pubs","handle":9,"pubs":[{"node":"n","addr":"a"}]}  (async push)
//
// Registrations live as long as the connection that made them, so the
// master keeps no state across restarts: RemoteMaster logs its
// registrations and watches (reglog.go) and replays them to every new
// session. While disconnected it is "degraded": data-plane connections
// keep flowing and master calls fail fast with ErrMasterUnavailable.

// ErrMasterUnavailable reports a master call attempted (or in flight)
// while the connection to the master is down. The client keeps
// reconnecting in the background; established pub/sub traffic is
// unaffected. Callers match it with errors.Is.
var ErrMasterUnavailable = errors.New("ros: master unavailable")

var errMasterClosed = errors.New("ros: remote master closed")

// masterMsg is the single wire envelope of the master protocol.
type masterMsg struct {
	Op     string          `json:"op"`
	ID     int64           `json:"id,omitempty"`
	Handle int64           `json:"handle,omitempty"`
	Topic  string          `json:"topic,omitempty"`
	Node   string          `json:"node,omitempty"`
	Addr   string          `json:"addr,omitempty"`
	Type   string          `json:"type,omitempty"`
	MD5    string          `json:"md5,omitempty"`
	Msg    string          `json:"msg,omitempty"`
	Code   string          `json:"code,omitempty"`  // error category ("type_mismatch")
	Resp   string          `json:"resp,omitempty"`  // service response type
	Found  bool            `json:"found,omitempty"` // lookupsrv result
	Relay  bool            `json:"relay,omitempty"` // regpub: relay-tier endpoint
	Pubs   []PublisherInfo `json:"pubs,omitempty"`
	Topics []TopicInfo     `json:"topics,omitempty"`

	// Epoch rides on every line, so a stale master fences as soon as it
	// sees a newer one (DESIGN §3.14); the rest is the standby feed.
	Epoch int64     `json:"epoch,omitempty"`
	Seq   uint64    `json:"seq,omitempty"`   // repl_op/repl_hb/repl_snap log position
	Kind  string    `json:"kind,omitempty"`  // repl_op kind (regpub/unregpub/regsrv/unregsrv)
	Owner int64     `json:"owner,omitempty"` // repl_op registration owner id
	RPubs []replReg `json:"rpubs,omitempty"` // repl_snap publisher table
	RSrvs []replReg `json:"rsrvs,omitempty"` // repl_snap service table
}

// opSessionDown fails the calls in flight on a dead session; it never
// crosses the wire.
const opSessionDown = "_down"

// Error codes of err responses. type_mismatch rebuilds ErrTypeMismatch
// on the client. stale_epoch (a fenced master) and standby (an
// unpromoted standby refusing a write) make a client treat the master
// as unavailable and rotate to its next candidate.
const (
	codeTypeMismatch = "type_mismatch"
	codeStaleEpoch   = "stale_epoch"
	codeStandby      = "standby"
)

// writeLine writes m as one protocol line (json.Encoder's bytes).
func writeLine(conn net.Conn, m *masterMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeRaw(conn, append(b, '\n'))
}

// writeRaw writes one line under a deadline: a peer that cannot keep up
// is severed, never waited for.
func writeRaw(conn net.Conn, line []byte) error {
	conn.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
	_, err := conn.Write(line)
	conn.SetWriteDeadline(time.Time{})
	return err
}

func lineScanner(conn net.Conn, max int) *bufio.Scanner {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), max)
	return sc
}

func decodeLine(b []byte) (m masterMsg, err error) {
	err = json.Unmarshal(b, &m)
	return m, err
}

// decode reads one line: short's own short form (a ping, or its ok)
// without encoding/json, anything else with it.
func decode(line []byte, short string) (masterMsg, error) {
	if id, epoch, ok := parseShort(line, short); ok {
		return masterMsg{Op: short, ID: id, Epoch: epoch}, nil
	}
	return decodeLine(line)
}

// malformed counts a line that is not JSON and logs the first one of a
// connection.
func malformed(g *obs.GraphStats, warned *bool, from any, err error) {
	g.MalformedLines.Inc()
	if !*warned {
		*warned = true
		log.Printf("ros: master: malformed line from %v (counted, logged once per connection): %v", from, err)
	}
}

// appendShort appends the line of a message carrying only op, id and
// epoch — a ping and its ok — byte for byte as json.Marshal writes it,
// without building one: a heartbeat allocates nothing on either end.
func appendShort(b []byte, op string, id, epoch int64) []byte {
	b = append(append(append(b, `{"op":"`...), op...), '"')
	if id != 0 {
		b = strconv.AppendInt(append(b, `,"id":`...), id, 10)
	}
	if epoch != 0 {
		b = strconv.AppendInt(append(b, `,"epoch":`...), epoch, 10)
	}
	return append(b, "}\n"...)
}

// parseShort reads back exactly the lines appendShort writes for op
// (newline stripped); any other line goes through encoding/json.
func parseShort(line []byte, op string) (id, epoch int64, ok bool) {
	rest, ok := cutString(line, `{"op":"`)
	if rest, ok = cutString(rest, op); ok {
		rest, ok = cutString(rest, `"`)
	}
	if ok {
		if id, rest, ok = cutInt(rest, `,"id":`); ok {
			epoch, rest, ok = cutInt(rest, `,"epoch":`)
		}
	}
	return id, epoch, ok && string(rest) == "}"
}

func cutString(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// cutInt reads an optional `key digits` field; ok is false only when the
// key is there without a positive number json would write.
func cutInt(b []byte, key string) (v int64, rest []byte, ok bool) {
	rest, found := cutString(b, key)
	if !found {
		return 0, b, true
	}
	i := 0
	for ; i < len(rest) && i < 18 && rest[i] >= '0' && rest[i] <= '9'; i++ {
		v = v*10 + int64(rest[i]-'0')
	}
	return v, rest[i:], i > 0 && rest[0] != '0'
}

const (
	// defaultClientExpiry is how long the server lets a client go silent
	// before expiring it; a heartbeating client is never near it.
	defaultClientExpiry = 15 * time.Second
	// defaultMasterHeartbeat is the client ping interval, which is also
	// the client's detector for silently dead master connections.
	defaultMasterHeartbeat = 3 * time.Second
	// defaultResyncGrace is how long after a replay watch pushes may add
	// publishers but not remove them: other clients are still replaying,
	// and a momentarily shrunken set must not tear down live links.
	defaultResyncGrace = 3 * time.Second
)

// MasterServerOption configures NewMasterServer.
type MasterServerOption func(*MasterServer)

// WithServerMetrics selects the registry of the server's graph
// instruments. Default obs.Default(); nil disables them.
func WithServerMetrics(r *obs.Registry) MasterServerOption {
	return func(s *MasterServer) { s.graph = r.Graph() }
}

// WithClientExpiry sets how long a client may go silent (no request, no
// ping) before the server expires it and cancels its registrations.
// Zero keeps the default (15s); negative disables expiry.
func WithClientExpiry(d time.Duration) MasterServerOption {
	return func(s *MasterServer) { s.expiry = d }
}

// WithStandby boots the server as a warm standby of the primary at addr
// (comma-separated candidates allowed): it replicates the primary's
// log, serves reads, rejects writes, and promotes itself once the
// primary's lease expires (WithPrimaryLease).
func WithStandby(addr string) MasterServerOption {
	return func(s *MasterServer) { s.standby = addr }
}

// WithPrimaryLease sets the replication lease (default 5s) on both
// sides of a pair: a standby's promotion silence, thrice the heartbeat.
func WithPrimaryLease(d time.Duration) MasterServerOption {
	return func(s *MasterServer) { s.lease = d }
}

// WithEpoch sets the starting epoch (default 1; a standby learns its
// primary's), so a restarted primary knows it may be stale.
func WithEpoch(e int64) MasterServerOption {
	return func(s *MasterServer) { s.epoch.Store(e) }
}

// WithEpochFile persists the epoch to path on boot and promotion (see
// LoadEpochFile).
func WithEpochFile(path string) MasterServerOption {
	return func(s *MasterServer) { s.epochFile = path }
}

// WithReplicationDialer replaces the dialer a standby uses toward its
// primary and for fencing probes (netsim partitions the pair with it).
func WithReplicationDialer(d DialFunc) MasterServerOption {
	return func(s *MasterServer) { s.dialRepl = d }
}

// MasterServer serves a LocalMaster over TCP, as a primary or as a warm
// standby of one (WithStandby, DESIGN §3.14).
type MasterServer struct {
	master    *LocalMaster
	listener  net.Listener
	graph     *obs.GraphStats
	expiry    time.Duration
	lease     time.Duration
	standby   string // primary address(es) this server follows / fences
	epochFile string
	dialRepl  DialFunc
	wg        sync.WaitGroup
	closeCh   chan struct{}
	fencedCh  chan struct{} // closed when the server fences itself

	epoch    atomic.Int64
	primary  atomic.Bool // accepts writes (boot primary, or promoted standby)
	fenced   atomic.Bool // observed a higher epoch: rejects everything
	ownerSeq atomic.Int64

	// log holds the registrations served: a primary's own, or a standby's
	// replica of its primary's, which promotion takes over as is.
	// inherited indexes the entries a promotion took over that no client
	// has adopted yet; nil outside the adoption window.
	log       *regLog
	inheritMu sync.Mutex
	inherited map[adoptKey]*regEntry

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewMasterServer starts serving on addr (e.g. "127.0.0.1:11311", the
// traditional ROS master port).
func NewMasterServer(addr string, opts ...MasterServerOption) (*MasterServer, error) {
	s := &MasterServer{
		master:   NewLocalMaster(),
		graph:    obs.Default().Graph(),
		dialRepl: func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		closeCh:  make(chan struct{}),
		fencedCh: make(chan struct{}),
		log:      newRegLog(regTail),
		conns:    make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.graph == nil {
		s.graph = new(obs.GraphStats) // sink: instruments stay nil-safe to update
	}
	if s.expiry == 0 {
		s.expiry = defaultClientExpiry
	}
	if s.lease <= 0 {
		s.lease = defaultPrimaryLease
	}
	var err error
	if s.listener, err = net.Listen("tcp", addr); err != nil {
		return nil, fmt.Errorf("ros: master listen: %w", err)
	}
	if s.standby != "" {
		// The configured epoch is a floor: older primaries are rejected.
		s.wg.Add(1)
		go s.follow()
	} else {
		epoch := max(s.epoch.Load(), LoadEpochFile(s.epochFile), 1)
		s.epoch.Store(epoch)
		s.primary.Store(true)
		s.persistEpoch(epoch)
	}
	s.graph.Epoch.SetMax(s.epoch.Load())
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *MasterServer) Addr() string { return s.listener.Addr().String() }

// Close stops the server and disconnects all clients immediately.
func (s *MasterServer) Close() error { return s.Shutdown(0) }

// Shutdown stops accepting clients, waits up to grace for connected ones
// to hang up, then severs the rest and joins all goroutines
// (cmd/rosmaster's SIGTERM).
func (s *MasterServer) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.closeCh)
	s.listener.Close()
	for deadline := time.Now().Add(grace); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *MasterServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveClient(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serveClient serves one connection's requests in order. A client silent
// past the expiry window is severed and its registrations cancelled, so
// a SIGKILLed or partitioned node leaves no ghost publishers behind.
func (s *MasterServer) serveClient(conn net.Conn) {
	defer conn.Close()
	// send stamps every line with the epoch, so clients learn of
	// promotions from any traffic, and severs a client too slow to take
	// it. sendPong answers a ping without building a message.
	var wmu sync.Mutex
	pong := make([]byte, 0, 64)
	send := func(m masterMsg) {
		m.Epoch = s.epoch.Load()
		wmu.Lock()
		defer wmu.Unlock()
		if writeLine(conn, &m) != nil {
			conn.Close()
		}
	}
	sendPong := func(id int64) {
		wmu.Lock()
		defer wmu.Unlock()
		if pong = appendShort(pong[:0], "ok", id, s.epoch.Load()); writeRaw(conn, pong) != nil {
			conn.Close()
		}
	}
	owner := s.nextOwner() // scopes the connection's registrations in the log
	var handle int64       // the last handle given out
	cancels := make(map[int64]func())
	var feedStop chan struct{} // set once the peer follows the log as a standby
	defer func() {
		if feedStop != nil {
			close(feedStop)
		}
		// No sweep when the server is going down: it would push phantom
		// removals to whichever clients disconnect last.
		s.mu.Lock()
		dying := s.closed
		s.mu.Unlock()
		if dying {
			return
		}
		for _, cancel := range cancels {
			cancel()
		}
	}()

	warned := false
	sc := lineScanner(conn, 1024*1024)
	for {
		if s.expiry > 0 {
			conn.SetReadDeadline(time.Now().Add(s.expiry))
		}
		if !sc.Scan() {
			if errors.Is(sc.Err(), os.ErrDeadlineExceeded) {
				s.graph.GhostExpiries.Inc()
				log.Printf("ros: master: expiring silent client %s (idle > %v)", conn.RemoteAddr(), s.expiry)
			}
			return
		}
		req, err := decode(sc.Bytes(), "ping")
		if err != nil {
			malformed(s.graph, &warned, conn.RemoteAddr(), err)
			send(masterMsg{Op: "err", Msg: "malformed request: " + err.Error()})
			continue
		}
		// A request from a higher epoch proves a newer primary exists:
		// this server fences and rejects everything from then on, reads
		// included (a stale graph is as dangerous as a stale write).
		if req.Epoch > s.epoch.Load() {
			s.fence(req.Epoch)
		}
		if s.fenced.Load() {
			send(masterMsg{Op: "err", ID: req.ID, Code: codeStaleEpoch,
				Msg: fmt.Sprintf("master epoch %d is stale, cluster has moved on", s.epoch.Load())})
			continue
		}
		if (req.Op == "regpub" || req.Op == "regsrv" || req.Op == "repl_sync") && !s.primary.Load() {
			msg := "standby master rejects writes until promotion"
			if req.Op == "repl_sync" {
				msg = "cannot replicate from an unpromoted standby"
			}
			send(masterMsg{Op: "err", ID: req.ID, Code: codeStandby, Msg: msg})
			continue
		}
		switch req.Op {
		case "ping":
			sendPong(req.ID)
		case "repl_ping": // a standby's keepalive: the read deadline moved
		case "repl_sync":
			// A standby follows the log until either end goes or we fence.
			if feedStop == nil {
				feedStop = make(chan struct{})
				s.wg.Add(1)
				go func(stop chan struct{}) {
					defer s.wg.Done()
					s.log.feed(send, s.beat(), stop, s.fencedCh)
					conn.Close()
				}(feedStop)
			}
		case "regpub", "regsrv":
			handle++
			unregister, err := s.register(req.entry(regKey{owner, handle}, req.Op))
			if err != nil {
				send(errMsg(req.ID, err))
				continue
			}
			cancels[handle] = unregister
			send(masterMsg{Op: "ok", ID: req.ID, Handle: handle})
		case "unregpub", "unwatch", "unregsrv":
			if cancel := cancels[req.Handle]; cancel != nil {
				delete(cancels, req.Handle)
				cancel()
			}
			send(masterMsg{Op: "ok", ID: req.ID})
		case "watch":
			// Validate, acknowledge, then subscribe: the client must know the
			// handle before the first push arrives.
			if err := s.master.CheckTopic(req.Topic, req.Type, req.MD5); err != nil {
				send(errMsg(req.ID, err))
				continue
			}
			handle++
			h := handle
			send(masterMsg{Op: "ok", ID: req.ID, Handle: h})
			cancel, err := s.master.WatchPublishers(req.Topic, req.Type, req.MD5, func(pubs []PublisherInfo) {
				send(masterMsg{Op: "pubs", Handle: h, Pubs: pubs})
			})
			if err == nil { // validated above; only a concurrent re-type could race here
				cancels[h] = cancel
			}
		case "lookupsrv":
			info, found, _ := s.master.LookupService(req.Topic)
			send(masterMsg{Op: "ok", ID: req.ID, Found: found, Node: info.NodeName, Addr: info.Addr,
				Type: info.ReqType, Resp: info.RespType, MD5: info.MD5})
		case "topics":
			send(masterMsg{Op: "ok", ID: req.ID, Topics: s.master.TopicsInfo()})
		default:
			send(masterMsg{Op: "err", ID: req.ID, Msg: "unknown op " + req.Op})
		}
	}
}

// errMsg builds an err response, tagging its category for the client.
func errMsg(id int64, err error) masterMsg {
	m := masterMsg{Op: "err", ID: id, Msg: err.Error()}
	if errors.Is(err, ErrTypeMismatch) {
		m.Code = codeTypeMismatch
	}
	return m
}

// MasterOption configures DialMaster.
type MasterOption func(*masterConfig)

type masterConfig struct {
	retry       RetryPolicy
	dial        DialFunc
	metrics     *obs.Registry
	heartbeat   time.Duration
	resyncGrace time.Duration
	extraAddrs  []string
}

// WithMasterRetry replaces the reconnect schedule (default
// DefaultRetryPolicy, forever). Once MaxAttempts > 0 rounds over the
// candidates fail, every call fails with ErrMasterUnavailable.
func WithMasterRetry(p RetryPolicy) MasterOption {
	return func(c *masterConfig) { c.retry = p }
}

// WithMasterDialer replaces the master connection's dialer (netsim
// partitions node and master with it).
func WithMasterDialer(d DialFunc) MasterOption {
	return func(c *masterConfig) { c.dial = d }
}

// WithMasterAddrs appends failover candidates to DialMaster's
// comma-separated address list (as ROS_MASTER_URI).
func WithMasterAddrs(addrs ...string) MasterOption {
	return func(c *masterConfig) { c.extraAddrs = append(c.extraAddrs, addrs...) }
}

// WithMasterMetrics selects the registry of the client's graph
// instruments. Default obs.Default(); nil disables them.
func WithMasterMetrics(r *obs.Registry) MasterOption {
	return func(c *masterConfig) { c.metrics = r }
}

// WithMasterHeartbeat sets the ping interval (default 3s; negative
// disables it, for tests). An unanswered ping severs the connection.
func WithMasterHeartbeat(d time.Duration) MasterOption {
	return func(c *masterConfig) { c.heartbeat = d }
}

// WithMasterResyncGrace sets how long after a replay watch pushes may
// not remove publishers (default 3s); zero delivers them raw.
func WithMasterResyncGrace(d time.Duration) MasterOption {
	return func(c *masterConfig) { c.resyncGrace = d }
}

// watchState is a client watch's delivery state. Pushes come from one
// read loop at a time; mu orders them with the end of the grace.
type watchState struct {
	cb        func([]PublisherInfo)
	mu        sync.Mutex
	delivered []PublisherInfo // last set handed to the callback
	lastRaw   []PublisherInfo // last raw set received from the master
	haveSets  bool            // delivered/lastRaw are meaningful
	settling  bool            // within the post-replay resync grace
}

// deliver hands one pushed publisher set to the callback, deduplicated
// and, within the resync grace, unioned with the delivered one.
func (w *watchState) deliver(pubs []PublisherInfo) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastRaw = pubs
	eff := pubs
	if w.settling && w.haveSets {
		eff = unionPubs(w.delivered, pubs)
	}
	if !w.haveSets || !pubsEqual(eff, w.delivered) {
		w.delivered, w.haveSets = eff, true
		w.cb(eff) // callback contract: must not block; mu serializes order
	}
}

// settle arms or ends the resync grace; ending it delivers the latest
// raw set if the grace held a removal back.
func (w *watchState) settle(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	was := w.settling
	w.settling = on
	if was && !on && w.haveSets && !pubsEqual(w.lastRaw, w.delivered) {
		w.delivered = w.lastRaw
		w.cb(w.lastRaw)
	}
}

// pubsEqual compares publisher sets by exported identity.
func pubsEqual(a, b []PublisherInfo) bool {
	return slices.EqualFunc(a, b, func(x, y PublisherInfo) bool {
		return x.NodeName == y.NodeName && x.Addr == y.Addr && x.TypeName == y.TypeName && x.MD5 == y.MD5
	})
}

// unionPubs merges two publisher sets by identity, sorted like the
// master's snapshots.
func unionPubs(a, b []PublisherInfo) []PublisherInfo {
	type key struct{ node, addr, typ, md5 string }
	seen := make(map[key]bool, len(a)+len(b))
	out := make([]PublisherInfo, 0, len(a)+len(b))
	for _, p := range slices.Concat(a, b) {
		if k := (key{p.NodeName, p.Addr, p.TypeName, p.MD5}); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	sortPubs(out)
	return out
}

// masterSession is one connection to the master, replaced on reconnect.
type masterSession struct {
	addr string
	conn net.Conn
	wmu  sync.Mutex // serializes request writes
	line []byte     // the ping being written, under wmu

	// Guarded by RemoteMaster.mu. replies holds the calls in flight and
	// is nil once the session is dead. landed is the session's replica
	// of the client log: each entry registered here, with the master's
	// handle, by which watches routes pushes.
	replies map[int64]reply
	landed  map[regKey]int64
	watches map[int64]*regEntry

	done chan struct{} // closed once the read loop has torn the session down
}

// reply is a call in flight: where its answer goes and the entry it
// makes. A watch's pushes are routed as its answer is read, before the
// first push behind it.
type reply struct {
	ch chan masterMsg
	e  *regEntry
}

// RemoteMaster is a Master backed by a MasterServer elsewhere. Its log
// is replayed to each new session: handles outlive master crashes.
type RemoteMaster struct {
	addrs []string // failover candidates, in preference order
	cfg   masterConfig
	graph *obs.GraphStats
	epoch atomic.Int64 // highest master epoch seen; echoed in every request

	mu         sync.Mutex
	log        *regLog // the caller's registrations and watches, keyed by the handle it got
	addr       string  // address of the current (or last) session
	addrIdx    int     // next candidate to dial
	warnedCand map[string]bool
	sess       *masterSession // nil while degraded
	nextID     int64
	nextHandle int64
	degraded   bool
	gaveUp     bool
	closed     bool

	kickCh  chan struct{} // nudges the manager to catch the session up
	closeCh chan struct{}
	wg      sync.WaitGroup
}

var _ Master = (*RemoteMaster)(nil)

// DialMaster connects to the first reachable of the comma-separated
// candidates in addr. After a connection loss it redials them in turn,
// with backoff, and replays its log to the master it lands on.
func DialMaster(addr string, opts ...MasterOption) (*RemoteMaster, error) {
	cfg := masterConfig{
		retry:       DefaultRetryPolicy,
		dial:        func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		metrics:     obs.Default(),
		resyncGrace: defaultResyncGrace,
	}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.retry = cfg.retry.withDefaults()
	if cfg.heartbeat == 0 {
		cfg.heartbeat = defaultMasterHeartbeat
	}
	addrs := splitMasterAddrs(strings.Join(append([]string{addr}, cfg.extraAddrs...), ","))
	graph := cfg.metrics.Graph()
	if graph == nil {
		graph = new(obs.GraphStats)
	}
	m := &RemoteMaster{addrs: addrs, cfg: cfg, graph: graph, log: newRegLog(0),
		warnedCand: make(map[string]bool), kickCh: make(chan struct{}, 1), closeCh: make(chan struct{})}
	if _, err := m.connect(false); err != nil {
		return nil, fmt.Errorf("ros: dial master %s: %w", strings.Join(addrs, ","), err)
	}
	m.wg.Add(1)
	go m.manage()
	return m, nil
}

// connect installs the first candidate that answers, from the current
// one on (nil, nil once closed); failures are noted but a first dial's
// last, whose error is the caller's.
func (m *RemoteMaster) connect(redial bool) (*masterSession, error) {
	var err error
	for i := range m.addrs {
		m.mu.Lock()
		addr := m.addrs[m.addrIdx]
		m.mu.Unlock()
		var conn net.Conn
		if conn, err = m.cfg.dial(addr); err == nil {
			sess := m.install(conn, addr)
			if sess == nil {
				conn.Close()
			}
			return sess, nil
		}
		if redial || i < len(m.addrs)-1 {
			m.noteFailedCandidate(addr, err.Error())
		}
	}
	return nil, err
}

// noteFailedCandidate counts a skipped candidate, logs it once per
// client, and rotates to the next one.
func (m *RemoteMaster) noteFailedCandidate(addr, reason string) {
	m.graph.FailedCandidates.Inc()
	m.mu.Lock()
	warned := m.warnedCand[addr]
	m.warnedCand[addr] = true
	if m.addrs[m.addrIdx] == addr {
		m.addrIdx = (m.addrIdx + 1) % len(m.addrs)
	}
	m.mu.Unlock()
	if !warned {
		log.Printf("ros: remote master: skipping candidate %s: %s (logged once per candidate)", addr, reason)
	}
}

// setDegraded moves the client's share of the degraded gauge. Callers
// hold m.mu.
func (m *RemoteMaster) setDegraded(on bool) {
	if m.degraded != on {
		m.degraded = on
		if on {
			m.graph.Degraded.Add(1)
		} else {
			m.graph.Degraded.Add(-1)
		}
	}
}

// Close disconnects from the master; its registrations go with the
// connection.
func (m *RemoteMaster) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	sess := m.sess
	m.setDegraded(false)
	m.mu.Unlock()
	close(m.closeCh)
	var err error
	if sess != nil {
		err = sess.conn.Close()
	}
	m.wg.Wait()
	return err
}

// install makes conn the live session, or returns nil once closed.
func (m *RemoteMaster) install(conn net.Conn, addr string) *masterSession {
	sess := &masterSession{addr: addr, conn: conn, line: make([]byte, 0, 64),
		replies: make(map[int64]reply), landed: make(map[regKey]int64),
		watches: make(map[int64]*regEntry), done: make(chan struct{})}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	failover := m.addr != "" && m.addr != addr
	m.sess, m.addr = sess, addr
	m.setDegraded(false)
	m.mu.Unlock()
	if failover {
		m.graph.Failovers.Inc()
		log.Printf("ros: remote master: failing over to %s", addr)
	}
	m.wg.Add(1)
	go m.readLoop(sess)
	if m.cfg.heartbeat > 0 {
		m.wg.Add(1)
		go m.heartbeat(sess)
	}
	return sess
}

// readLoop demultiplexes one session's replies and pushes; whatever ends
// it fails every call in flight, so none blocks forever.
func (m *RemoteMaster) readLoop(sess *masterSession) {
	defer m.wg.Done()
	defer sess.conn.Close()
	warned := false
	sc := lineScanner(sess.conn, 1024*1024)
	for sc.Scan() {
		resp, err := decode(sc.Bytes(), "ok")
		if err != nil {
			malformed(m.graph, &warned, sess.addr, err)
			continue
		}
		if resp.Epoch > m.epoch.Load() { // one read loop at a time writes it
			m.epoch.Store(resp.Epoch)
			m.graph.Epoch.SetMax(resp.Epoch)
		}
		m.mu.Lock()
		if resp.Op != "pubs" {
			r := sess.replies[resp.ID]
			delete(sess.replies, resp.ID)
			if resp.Op == "ok" && r.e != nil && r.e.watch != nil {
				sess.watches[resp.Handle] = r.e
			}
			m.mu.Unlock()
			if r.ch != nil {
				r.ch <- resp
			}
			continue
		}
		// A watch unregistered while its replay was in flight keeps its
		// route until the replay takes it back; it gets nothing.
		e := sess.watches[resp.Handle]
		if e != nil && e.key != (regKey{}) && m.log.get(e.key) == nil {
			e = nil
		}
		m.mu.Unlock()
		if e != nil {
			e.watch.deliver(resp.Pubs)
		}
	}

	m.mu.Lock()
	if m.sess == sess {
		m.sess = nil
		m.setDegraded(!m.closed)
	}
	replies := sess.replies
	sess.replies = nil
	m.mu.Unlock()
	for _, r := range replies {
		r.ch <- masterMsg{Op: opSessionDown} // cap-1 channels with one waiter each: never blocks
	}
	close(sess.done)
}

// heartbeat pings every interval and severs a connection that takes two
// to answer. One request, reply slot and timer serve every ping.
func (m *RemoteMaster) heartbeat(sess *masterSession) {
	defer m.wg.Done()
	interval := m.cfg.heartbeat
	tick := time.NewTicker(interval)
	defer tick.Stop()
	timeout := time.NewTimer(2 * interval)
	defer timeout.Stop()
	ping, pong := &masterMsg{Op: "ping"}, make(chan masterMsg, 1)
	for {
		select {
		case <-m.closeCh:
			return
		case <-sess.done:
			return
		case <-tick.C:
		}
		timeout.Reset(2 * interval)
		if _, err := m.exchange(sess, ping, nil, pong, timeout.C, 2*interval); err != nil {
			sess.conn.Close()
			return
		}
	}
}

// manage redials after connection loss, catches each session up with
// the log, and runs the resync grace.
func (m *RemoteMaster) manage() {
	defer m.wg.Done()
	settle := time.NewTimer(time.Hour)
	settle.Stop()
	defer settle.Stop()
	for {
		m.mu.Lock()
		closed, gaveUp, sess := m.closed, m.gaveUp, m.sess
		m.mu.Unlock()
		if closed || gaveUp {
			return
		}
		if sess == nil {
			if sess = m.redial(); sess == nil {
				continue // closed or gave up; top of loop exits
			}
		}
		start := time.Now()
		landed, watches, ok := m.catchUp(sess)
		if !ok {
			select { // died mid-replay: reconnect once torn down
			case <-sess.done:
			case <-m.closeCh:
				return
			}
			continue
		}
		if landed > 0 {
			m.graph.Replays.Inc()
			m.graph.ResyncLatency.Observe(time.Since(start))
			if watches > 0 && m.cfg.resyncGrace > 0 {
				settle.Reset(m.cfg.resyncGrace)
			}
		}
		select {
		case <-m.closeCh:
			return
		case <-m.kickCh:
		case <-sess.done:
		case <-settle.C:
			entries, _ := m.log.snapshot()
			for _, e := range entries {
				if e.watch != nil {
					e.watch.settle(false)
				}
			}
		}
	}
}

// redial reconnects with the configured backoff, each attempt a round
// over the candidates. It returns nil when the client closes or the
// attempt budget runs out (gave up: the master is unavailable for good).
func (m *RemoteMaster) redial() *masterSession {
	p := m.cfg.retry
	for attempt := 1; p.MaxAttempts <= 0 || attempt <= p.MaxAttempts; attempt++ {
		select {
		case <-m.closeCh:
			return nil
		case <-time.After(p.backoff(attempt)):
		}
		if sess, err := m.connect(true); err == nil {
			if sess != nil {
				m.graph.MasterReconnects.Inc()
			}
			return sess
		}
	}
	m.mu.Lock()
	m.gaveUp = true
	m.mu.Unlock()
	log.Printf("ros: remote master %s: giving up after %d reconnect attempts", strings.Join(m.addrs, ","), p.MaxAttempts)
	return nil
}

// catchUp registers on sess every entry of the log it has not landed
// (all of them on a fresh session: the replay), watches last so their
// snapshots hold this client's own publishers. It reports the entries
// and watches landed, and false if the session died on the way.
func (m *RemoteMaster) catchUp(sess *masterSession) (landed, watches int, ok bool) {
	snap, _ := m.log.snapshot()
	sort.Slice(snap, func(i, j int) bool {
		if wi, wj := snap[i].watch != nil, snap[j].watch != nil; wi != wj {
			return wj
		}
		return snap[i].key.Handle < snap[j].key.Handle
	})
	for _, e := range snap {
		m.mu.Lock()
		_, done := sess.landed[e.key]
		m.mu.Unlock()
		if done || m.log.get(e.key) == nil {
			continue // landed by its own registration, or unregistered meanwhile
		}
		if e.watch != nil && m.cfg.resyncGrace > 0 {
			e.watch.settle(true) // before the call: its first push may come first
		}
		resp, err := m.callOn(sess, e.request(), e)
		if errors.Is(err, ErrMasterUnavailable) || errors.Is(err, errMasterClosed) {
			return landed, watches, false // the log stays intact for the next session
		} else if err != nil {
			// The master rejects what it once accepted (another client took
			// the service name or re-typed the topic): drop the entry.
			log.Printf("ros: remote master %s: replay of %s %q rejected, dropping: %v",
				sess.addr, e.kind, e.topic, err)
			m.log.remove(e.key)
			continue
		}
		m.mu.Lock()
		if m.log.get(e.key) == nil {
			// Unregistered concurrently with the replay: take it back.
			delete(sess.watches, resp.Handle)
			m.mu.Unlock()
			m.callOn(sess, masterMsg{Op: "un" + e.kind, Handle: resp.Handle}, nil) //nolint:errcheck // best-effort
			continue
		}
		sess.landed[e.key] = resp.Handle
		m.mu.Unlock()
		landed++
		if e.watch != nil {
			watches++
		}
	}
	return landed, watches, true
}

// masterCallTimeout bounds one exchange; an answer this slow means the
// connection is dead.
const masterCallTimeout = 30 * time.Second

// call performs one exchange on the live session and names it; while
// degraded it fails fast with ErrMasterUnavailable.
func (m *RemoteMaster) call(req masterMsg, e *regEntry) (masterMsg, *masterSession, error) {
	m.mu.Lock()
	sess, err := m.sess, error(nil)
	switch {
	case m.closed:
		err = errMasterClosed
	case sess == nil && m.gaveUp:
		err = fmt.Errorf("%w: reconnect attempts to %s exhausted", ErrMasterUnavailable, m.addr)
	case sess == nil:
		err = fmt.Errorf("%w: reconnecting to %s", ErrMasterUnavailable, m.addr)
	}
	m.mu.Unlock()
	if err != nil {
		return masterMsg{}, nil, err
	}
	resp, err := m.callOn(sess, req, e)
	return resp, sess, err
}

// callOn performs one exchange on sess; e is the entry the request
// makes, if any.
func (m *RemoteMaster) callOn(sess *masterSession, req masterMsg, e *regEntry) (masterMsg, error) {
	t := time.NewTimer(masterCallTimeout)
	defer t.Stop()
	return m.exchange(sess, &req, e, make(chan masterMsg, 1), t.C, masterCallTimeout)
}

// exchange stamps req with a fresh id and the highest epoch seen, writes
// it, and waits in ch for the reply, mapped to a typed error if it is
// one. A write error or a timeout severs the connection.
func (m *RemoteMaster) exchange(sess *masterSession, req *masterMsg, e *regEntry, ch chan masterMsg, timeout <-chan time.Time, d time.Duration) (masterMsg, error) {
	m.mu.Lock()
	if closed, lost := m.closed, sess.replies == nil; closed || lost {
		m.mu.Unlock()
		if closed {
			return masterMsg{}, errMasterClosed
		}
		return masterMsg{}, fmt.Errorf("%w: connection lost", ErrMasterUnavailable)
	}
	m.nextID++
	req.ID, req.Epoch = m.nextID, m.epoch.Load()
	sess.replies[req.ID] = reply{ch, e}
	m.mu.Unlock()

	sess.wmu.Lock()
	var err error
	if req.Op == "ping" {
		sess.line = appendShort(sess.line[:0], "ping", req.ID, req.Epoch)
		err = writeRaw(sess.conn, sess.line)
	} else {
		err = writeLine(sess.conn, req)
	}
	sess.wmu.Unlock()
	var resp masterMsg
	if err == nil {
		select {
		case resp = <-ch:
		case <-timeout:
			err = fmt.Errorf("call timed out after %v", d)
		}
	}
	if err != nil {
		m.mu.Lock()
		if sess.replies != nil {
			delete(sess.replies, req.ID)
		}
		m.mu.Unlock()
		sess.conn.Close()
		return masterMsg{}, fmt.Errorf("%w: %v", ErrMasterUnavailable, err)
	}
	msg := cmp.Or(resp.Msg, "master error")
	switch {
	case resp.Op == opSessionDown:
		return masterMsg{}, fmt.Errorf("%w: connection lost with call in flight", ErrMasterUnavailable)
	case resp.Op != "err":
		return resp, nil
	case resp.Code == codeTypeMismatch:
		return masterMsg{}, fmt.Errorf("%w: %s", ErrTypeMismatch, msg)
	case resp.Code == codeStaleEpoch || resp.Code == codeStandby:
		// A fenced or standby master: move to the next candidate, where a
		// replay retries the entry.
		m.noteFailedCandidate(sess.addr, resp.Code+": "+msg)
		sess.conn.Close()
		return masterMsg{}, fmt.Errorf("%w: master %s rejected call (%s)", ErrMasterUnavailable, sess.addr, resp.Code)
	}
	return masterMsg{}, fmt.Errorf("ros: master: %s", msg)
}

// register makes e on the live session and logs it, so every later
// session gets it too, until the returned func unregisters it. A
// watch's first push may reach its callback before register returns.
func (m *RemoteMaster) register(e *regEntry) (func(), error) {
	resp, sess, err := m.call(e.request(), e)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextHandle++
	e.key = regKey{Handle: m.nextHandle}
	m.log.add(e)
	if m.sess == sess {
		sess.landed[e.key] = resp.Handle
	} else {
		select { // the session died with it: make the manager land it again
		case m.kickCh <- struct{}{}:
		default:
		}
	}
	return func() { m.unregister(e.key) }, nil
}

// unregister drops k from the log, so no replay resurrects it, and
// withdraws it from the live session where it landed.
func (m *RemoteMaster) unregister(k regKey) {
	m.mu.Lock()
	e, sess := m.log.remove(k), m.sess
	var h int64
	landed := false
	if e != nil && sess != nil {
		if h, landed = sess.landed[k]; landed {
			delete(sess.landed, k)
			delete(sess.watches, h)
		}
	}
	m.mu.Unlock()
	if landed {
		m.callOn(sess, masterMsg{Op: "un" + e.kind, Handle: h}, nil) //nolint:errcheck // best-effort on teardown
	}
}

// RegisterPublisher implements Master; the registration survives master
// restarts until unregistered.
func (m *RemoteMaster) RegisterPublisher(topic string, info PublisherInfo) (func(), error) {
	return m.register(&regEntry{kind: "regpub", topic: topic, pub: info})
}

// RegisterService implements Master, like RegisterPublisher.
func (m *RemoteMaster) RegisterService(name string, info ServiceInfo) (func(), error) {
	return m.register(&regEntry{kind: "regsrv", topic: name, srv: info})
}

// WatchPublishers implements Master; the watch survives master restarts
// without tearing down unchanged publishers (WithMasterResyncGrace).
func (m *RemoteMaster) WatchPublishers(topic, typeName, md5 string, cb func([]PublisherInfo)) (func(), error) {
	return m.register(&regEntry{kind: "watch", topic: topic,
		pub: PublisherInfo{TypeName: typeName, MD5: md5}, watch: &watchState{cb: cb}})
}

// LookupService implements Master.
func (m *RemoteMaster) LookupService(name string) (ServiceInfo, bool, error) {
	resp, _, err := m.call(masterMsg{Op: "lookupsrv", Topic: name}, nil)
	if err != nil || !resp.Found {
		return ServiceInfo{}, false, err
	}
	return ServiceInfo{NodeName: resp.Node, Addr: resp.Addr, ReqType: resp.Type, RespType: resp.Resp, MD5: resp.MD5}, true, nil
}

// TopicsInfo queries the server's topic table.
func (m *RemoteMaster) TopicsInfo() ([]TopicInfo, error) {
	resp, _, err := m.call(masterMsg{Op: "topics"}, nil)
	return resp.Topics, err
}

// DialMasterWithTimeout retries DialMaster with the default backoff until
// timeout elapses (≤0: once), so a CLI tool started just before
// rosmaster does not give up on the first refused connection.
func DialMasterWithTimeout(addr string, timeout time.Duration, opts ...MasterOption) (*RemoteMaster, error) {
	deadline := time.Now().Add(timeout)
	p := DefaultRetryPolicy.withDefaults()
	for attempt := 1; ; attempt++ {
		m, err := DialMaster(addr, opts...)
		if err == nil || timeout <= 0 || !time.Now().Before(deadline) {
			return m, err
		}
		time.Sleep(min(p.backoff(attempt), time.Until(deadline)))
	}
}
