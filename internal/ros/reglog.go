package ros

import (
	"log"
	"sync"
	"time"
)

// The registration log is the graph plane's one table (DESIGN §3.9,
// §3.14): registrations keyed by wire identity, each addition and
// removal at the next position of one sequence. A RemoteMaster logs its
// registrations and watches, and each master session follows that log
// from position 0, so a fresh session replays it all. A primary logs
// its clients' registrations and feeds the log to a standby, whose own
// log promotion takes over. A follower further behind than the tail is
// cut off and resyncs from a snapshot, applied as a diff: a replica
// that is already current sees no change.

// regKey is the wire identity of a registration: the owner id of the
// connection that made it (epoch-scoped, so owners minted by different
// primaries never collide) and its handle there. A client's log uses
// owner 0 and the handle it gives its caller.
type regKey struct{ Owner, Handle int64 }

// regEntry is one registration: a publisher, a service or, in a
// client's log, a watch (its type and md5 ride in pub). Every field but
// cancel is fixed before the entry enters a log.
type regEntry struct {
	key    regKey
	kind   string // the request that makes it: "regpub", "regsrv" or "watch"
	topic  string // topic or service name
	pub    PublisherInfo
	srv    ServiceInfo
	cancel func()      // server side: withdraws it from the serving LocalMaster
	watch  *watchState // client side: a watch's delivery state
}

// replReg is the wire shape of one registration inside a repl_snap.
type replReg struct {
	Owner  int64  `json:"owner"`
	Handle int64  `json:"handle"`
	Topic  string `json:"topic"`
	Node   string `json:"node,omitempty"`
	Addr   string `json:"addr,omitempty"`
	Type   string `json:"type,omitempty"`
	Resp   string `json:"resp,omitempty"`
	MD5    string `json:"md5,omitempty"`
	Relay  bool   `json:"relay,omitempty"`
}

func (r replReg) entry(kind string) *regEntry {
	e := &regEntry{key: regKey{r.Owner, r.Handle}, kind: kind, topic: r.Topic}
	if kind == "regsrv" {
		e.srv = ServiceInfo{NodeName: r.Node, Addr: r.Addr, ReqType: r.Type, RespType: r.Resp, MD5: r.MD5}
	} else {
		e.pub = PublisherInfo{NodeName: r.Node, Addr: r.Addr, TypeName: r.Type, MD5: r.MD5, Relay: r.Relay}
	}
	return e
}

// entry decodes the registration a regpub, regsrv or repl_op line
// carries.
func (m *masterMsg) entry(key regKey, kind string) *regEntry {
	return replReg{key.Owner, key.Handle, m.Topic, m.Node, m.Addr, m.Type, m.Resp, m.MD5, m.Relay}.entry(kind)
}

func (e *regEntry) wire() replReg {
	r := replReg{Owner: e.key.Owner, Handle: e.key.Handle, Topic: e.topic}
	if e.kind == "regsrv" {
		r.Node, r.Addr, r.Type, r.Resp, r.MD5 = e.srv.NodeName, e.srv.Addr, e.srv.ReqType, e.srv.RespType, e.srv.MD5
	} else {
		r.Node, r.Addr, r.Type, r.MD5, r.Relay = e.pub.NodeName, e.pub.Addr, e.pub.TypeName, e.pub.MD5, e.pub.Relay
	}
	return r
}

// request is the line a client sends to make e.
func (e *regEntry) request() masterMsg {
	r := e.wire()
	return masterMsg{Op: e.kind, Topic: r.Topic, Node: r.Node, Addr: r.Addr,
		Type: r.Type, Resp: r.Resp, MD5: r.MD5, Relay: r.Relay}
}

// regOp is one log position: an entry added or removed.
type regOp struct {
	seq   uint64
	unreg bool
	e     *regEntry
}

// regTail is how many ops a primary's log keeps for its standby. A
// standby further behind is cut off rather than allowed to hold the
// primary back; it reconnects and resyncs from a snapshot.
const regTail = 1024

// regLog is a sequenced registration table, safe for concurrent use.
type regLog struct {
	mu   sync.Mutex
	seq  uint64
	live map[regKey]*regEntry
	tail []regOp       // ring of the last len(tail) ops; empty where nobody follows
	wake chan struct{} // closed by the next op; made when a follower waits
}

func newRegLog(tail int) *regLog {
	return &regLog{live: make(map[regKey]*regEntry), tail: make([]regOp, tail)}
}

// add appends e.
func (l *regLog) add(e *regEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live[e.key] = e
	l.appendLocked(regOp{e: e})
}

// remove appends the removal of k and returns its entry, or nil (and no
// op) when k is not live.
func (l *regLog) remove(k regKey) *regEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.live[k]
	if e != nil {
		delete(l.live, k)
		l.appendLocked(regOp{unreg: true, e: e})
	}
	return e
}

func (l *regLog) appendLocked(op regOp) {
	l.seq++
	op.seq = l.seq
	if n := uint64(len(l.tail)); n > 0 {
		l.tail[l.seq%n] = op
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// get returns the live entry under k, or nil.
func (l *regLog) get(k regKey) *regEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.live[k]
}

// snapshot returns the live entries and the position they stand for.
func (l *regLog) snapshot() ([]*regEntry, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*regEntry, 0, len(l.live))
	for _, e := range l.live {
		out = append(out, e)
	}
	return out, l.seq
}

// since appends the ops after pos to buf and returns them with the
// position they reach and a channel the next op closes. ok is false
// when pos has fallen off the tail: the follower is cut off.
func (l *regLog) since(pos uint64, buf []regOp) (ops []regOp, to uint64, next <-chan struct{}, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := uint64(len(l.tail))
	if l.seq-pos > n {
		return buf, pos, nil, false
	}
	for s := pos + 1; s <= l.seq; s++ {
		buf = append(buf, l.tail[s%n])
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return buf, l.seq, l.wake, true
}

// reconcile applies a snapshot to the log as a diff: drop gets every
// live entry the snapshot lacks, add every snapshot entry the log
// lacks, and entries on both sides are left alone. Both run without the
// log's lock and are expected to remove and add through it.
func (l *regLog) reconcile(snap []*regEntry, add, drop func(*regEntry)) {
	want := make(map[regKey]bool, len(snap))
	for _, e := range snap {
		want[e.key] = true
	}
	have, _ := l.snapshot()
	for _, e := range have {
		if !want[e.key] {
			drop(e)
		}
	}
	for _, e := range snap {
		if l.get(e.key) == nil {
			add(e)
		}
	}
}

// feed streams the log to one standby through send: a repl_snap, a
// repl_op for every op after it, and a repl_hb carrying the position
// sent so far every beat. It returns when stop or cut closes, or at
// once when the standby has fallen off the tail; the caller then severs
// the connection.
func (l *regLog) feed(send func(masterMsg), beat time.Duration, stop, cut <-chan struct{}) {
	snap, pos := l.snapshot()
	m := masterMsg{Op: "repl_snap", Seq: pos}
	for _, e := range snap {
		if e.kind == "regsrv" {
			m.RSrvs = append(m.RSrvs, e.wire())
		} else {
			m.RPubs = append(m.RPubs, e.wire())
		}
	}
	send(m)
	t := time.NewTicker(beat)
	defer t.Stop()
	var ops []regOp
	for {
		var next <-chan struct{}
		var ok bool
		if ops, pos, next, ok = l.since(pos, ops[:0]); !ok {
			log.Printf("ros: master: replication follower fell more than %d ops behind, cutting it off to resync", regTail)
			return
		}
		for _, op := range ops {
			var m masterMsg
			if !op.unreg {
				m = op.e.request()
			}
			m.Op, m.Seq, m.Kind, m.Owner, m.Handle = "repl_op", op.seq, op.e.kind, op.e.key.Owner, op.e.key.Handle
			if op.unreg {
				m.Kind = "un" + m.Kind
			}
			send(m)
		}
		select {
		case <-stop:
			return
		case <-cut:
			return
		case <-next:
		case <-t.C:
			send(masterMsg{Op: "repl_hb", Seq: pos})
		}
	}
}

// snapEntries decodes the tables of a repl_snap.
func (m *masterMsg) snapEntries() []*regEntry {
	out := make([]*regEntry, 0, len(m.RPubs)+len(m.RSrvs))
	for _, r := range m.RPubs {
		out = append(out, r.entry("regpub"))
	}
	for _, r := range m.RSrvs {
		out = append(out, r.entry("regsrv"))
	}
	return out
}
