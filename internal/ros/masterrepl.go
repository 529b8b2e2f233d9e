package ros

// Warm-standby master replication (DESIGN §3.14). A standby follows the
// primary's registration log (reglog.go) and serves reads from its copy.
// Once the primary's lease expires it promotes itself at the next epoch,
// keeps its log as the primary's, and lets the owners' replays adopt
// the entries in place for one client-expiry window. A server that sees
// a higher epoch than its own fences itself for good.

import (
	"bufio"
	"log"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultPrimaryLease is how long a standby hears nothing from its
// primary before it promotes; the primary's heartbeat is lease/3.
const defaultPrimaryLease = 5 * time.Second

// replScanBuffer bounds one replication line. A snapshot carries the
// whole table in one line (a 100k-entry graph is some 20 MB).
const replScanBuffer = 256 * 1024 * 1024

// adoptKey matches a replayed registration to an inherited entry by its
// full wire identity, owner and handle aside.
type adoptKey struct {
	kind string
	replReg
}

func (e *regEntry) adoptionKey() adoptKey {
	k := adoptKey{kind: e.kind, replReg: e.wire()}
	k.Owner, k.Handle = 0, 0
	return k
}

// register serves one registration and logs it, which feeds it to the
// standby — or, within a promotion's adoption window, adopts the
// matching inherited entry as is: no op, no watcher notified. The
// returned func withdraws it.
func (s *MasterServer) register(e *regEntry) (func(), error) {
	s.inheritMu.Lock()
	if a := s.inherited[e.adoptionKey()]; a != nil {
		delete(s.inherited, e.adoptionKey())
		e = a
	}
	s.inheritMu.Unlock()
	if e.cancel == nil {
		if err := s.serve(e); err != nil {
			return nil, err
		}
		s.log.add(e)
	}
	return func() { s.unregisterEntry(e) }, nil
}

// serve registers e on the LocalMaster.
func (s *MasterServer) serve(e *regEntry) (err error) {
	if e.kind == "regsrv" {
		e.cancel, err = s.master.RegisterService(e.topic, e.srv)
	} else {
		e.cancel, err = s.master.RegisterPublisher(e.topic, e.pub)
	}
	return err
}

// unregisterEntry removes e from the log (idempotently) and from the
// LocalMaster.
func (s *MasterServer) unregisterEntry(e *regEntry) {
	if s.log.remove(e.key) == nil {
		return
	}
	s.inheritMu.Lock()
	if k := e.adoptionKey(); s.inherited[k] == e {
		delete(s.inherited, k)
	}
	s.inheritMu.Unlock()
	e.cancel()
}

// nextOwner mints an epoch-scoped owner id for one client connection:
// owners minted by different primaries never collide.
func (s *MasterServer) nextOwner() int64 {
	return s.epoch.Load()<<32 | s.ownerSeq.Add(1)
}

// fence marks this server stale: a higher epoch exists somewhere, so
// any further operation could split the brain. Every later request is
// answered err:stale_epoch and the standby feed is cut.
func (s *MasterServer) fence(seenEpoch int64) {
	if s.fenced.Swap(true) {
		return
	}
	close(s.fencedCh)
	s.graph.Epoch.SetMax(seenEpoch)
	log.Printf("ros: master %s: fenced — epoch %d observed, own epoch %d is stale; rejecting all requests",
		s.Addr(), seenEpoch, s.epoch.Load())
}

// Epoch returns the server's current epoch.
func (s *MasterServer) Epoch() int64 { return s.epoch.Load() }

// IsPrimary reports whether the server accepts writes: a primary or a
// promoted standby that has not fenced itself.
func (s *MasterServer) IsPrimary() bool { return s.primary.Load() && !s.fenced.Load() }

// Fenced reports whether the server has fenced itself after observing
// a higher epoch.
func (s *MasterServer) Fenced() bool { return s.fenced.Load() }

// beat is the replication heartbeat, both ways: the primary's repl_hb
// and the standby's repl_ping.
func (s *MasterServer) beat() time.Duration { return max(s.lease/3, 10*time.Millisecond) }

// follow is the standby's life: keep a replication feed alive against
// the configured primary, and promote once the primary's lease expires
// with no contact. Runs until promotion, fencing, or Close.
func (s *MasterServer) follow() {
	defer s.wg.Done()
	// The primary gets one full lease from standby boot.
	lastContact := time.Now()
	s.graph.ReplLastContact.Set(lastContact.UnixNano())
	retry := RetryPolicy{InitialBackoff: 20 * time.Millisecond, MaxBackoff: max(s.lease/4, 20*time.Millisecond),
		Multiplier: 2, Jitter: 0.5}.withDefaults()
	candidates := splitMasterAddrs(s.standby)
	for attempt := 1; !s.fenced.Load(); attempt++ {
		if time.Since(lastContact) > s.lease {
			s.promote()
			return
		}
		if conn, sc, err := s.replSync(candidates[(attempt-1)%len(candidates)]); err == nil {
			s.followConn(conn, sc, &lastContact)
		}
		select {
		case <-s.closeCh:
			return
		case <-time.After(retry.backoff(attempt)):
		}
	}
}

// replSync dials addr and asks to follow its log, claiming this
// server's epoch.
func (s *MasterServer) replSync(addr string) (net.Conn, *bufio.Scanner, error) {
	conn, err := s.dialRepl(addr)
	if err != nil {
		return nil, nil, err
	}
	if err := writeLine(conn, &masterMsg{Op: "repl_sync", Epoch: s.epoch.Load()}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, lineScanner(conn, replScanBuffer), nil
}

// followConn runs one replication session: snapshot, then op stream. It
// returns when the connection dies, the source proves stale, or the
// feed goes silent past the lease (the read deadline).
func (s *MasterServer) followConn(conn net.Conn, sc *bufio.Scanner, lastContact *time.Time) {
	defer conn.Close()
	done := make(chan struct{})
	defer close(done)
	s.wg.Add(1)
	go func() { // Shutdown must not wait out a healthy feed
		defer s.wg.Done()
		select {
		case <-s.closeCh:
			conn.Close()
		case <-done:
		}
	}()
	var pos uint64 // the primary's log position applied so far
	var synced bool
	var pinged time.Time
	for {
		conn.SetReadDeadline(time.Now().Add(s.lease))
		if !sc.Scan() {
			return
		}
		// Keepalive toward the primary, whose read deadline would
		// otherwise expire a quiet replica as a ghost.
		if time.Since(pinged) >= s.beat() {
			if pinged = time.Now(); writeLine(conn, &masterMsg{Op: "repl_ping"}) != nil {
				return
			}
		}
		m, err := decodeLine(sc.Bytes())
		if err != nil {
			s.graph.MalformedLines.Inc()
			continue
		}
		switch m.Op {
		case "repl_snap":
			if m.Epoch < s.epoch.Load() {
				log.Printf("ros: standby %s: rejecting replication source %s: stale epoch %d < %d",
					s.Addr(), conn.RemoteAddr(), m.Epoch, s.epoch.Load())
				return
			}
			s.epoch.Store(m.Epoch)
			s.graph.Epoch.SetMax(m.Epoch)
			s.log.reconcile(m.snapEntries(), s.replicate, s.unregisterEntry)
			pos, synced = m.Seq, true
		case "repl_op":
			if !synced {
				continue // ops before the snapshot belong to no cut we know
			}
			if m.Seq != pos+1 {
				log.Printf("ros: standby %s: replication gap (have %d, got %d); resyncing", s.Addr(), pos, m.Seq)
				return
			}
			pos = m.Seq
			switch key := (regKey{m.Owner, m.Handle}); m.Kind {
			case "regpub", "regsrv":
				s.replicate(m.entry(key, m.Kind))
			case "unregpub", "unregsrv":
				if e := s.log.get(key); e != nil {
					s.unregisterEntry(e)
				}
			}
		case "repl_hb":
			if synced && m.Seq != pos {
				log.Printf("ros: standby %s: heartbeat seq %d != applied %d; resyncing", s.Addr(), m.Seq, pos)
				return
			}
		case "err":
			switch m.Code {
			case codeStaleEpoch:
				// The source says OUR epoch is ahead of it: the source is
				// the stale one (it fences itself on this exchange). Let
				// the lease run out and promote.
				log.Printf("ros: standby %s: replication source %s is behind our epoch; waiting out the lease",
					s.Addr(), conn.RemoteAddr())
				return
			case codeStandby:
				return // following another unpromoted standby: a useless feed
			}
			continue
		default:
			continue
		}
		*lastContact = time.Now()
		s.graph.ReplLastContact.Set(lastContact.UnixNano())
	}
}

// replicate serves one entry of the primary's log and adds it to the
// standby's. An entry this LocalMaster cannot hold (e.g. a raced
// service name) is counted rather than allowed to wedge the feed.
func (s *MasterServer) replicate(e *regEntry) {
	if err := s.serve(e); err != nil {
		s.graph.MalformedLines.Inc()
		log.Printf("ros: standby %s: cannot apply replicated %s %q: %v", s.Addr(), e.kind, e.topic, err)
		return
	}
	s.log.add(e)
}

// promote turns the standby into the primary: bump and persist the
// epoch, open the replicated entries to adoption for one client-expiry
// window (exactly the liveness budget a client of the old primary had),
// open the write path, and fence the old primary's address.
func (s *MasterServer) promote() {
	newEpoch := s.epoch.Load() + 1
	s.epoch.Store(newEpoch)
	s.persistEpoch(newEpoch)
	s.graph.Epoch.SetMax(newEpoch)
	s.graph.ReplLastContact.Set(0)

	live, _ := s.log.snapshot()
	s.inheritMu.Lock()
	s.inherited = make(map[adoptKey]*regEntry, len(live))
	for _, e := range live {
		s.inherited[e.adoptionKey()] = e
	}
	s.inheritMu.Unlock()
	s.primary.Store(true)
	grace := s.expiry
	if grace <= 0 {
		grace = defaultClientExpiry
	}
	log.Printf("ros: master %s: primary lease expired — promoting to epoch %d (%d inherited registrations, adoption window %v)",
		s.Addr(), newEpoch, len(live), grace)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		select {
		case <-s.closeCh:
		case <-time.After(grace):
			s.expireInherited()
		}
	}()
	go s.fenceOldPrimary()
}

// expireInherited cancels every inherited entry that no client replay
// adopted within the grace window.
func (s *MasterServer) expireInherited() {
	s.inheritMu.Lock()
	orphans := s.inherited
	s.inherited = nil
	s.inheritMu.Unlock()
	for _, e := range orphans {
		s.graph.GhostExpiries.Inc()
		s.unregisterEntry(e)
	}
	if len(orphans) > 0 {
		log.Printf("ros: master %s: expired %d inherited registrations never re-claimed after failover",
			s.Addr(), len(orphans))
	}
}

// fenceOldPrimary probes the old primary's address with the new epoch
// until the old primary acknowledges it is stale or the server closes.
// This closes the zombie window even for clients that never learned the
// new epoch.
func (s *MasterServer) fenceOldPrimary() {
	defer s.wg.Done()
	for pending := splitMasterAddrs(s.standby); len(pending) > 0; pending = slices.DeleteFunc(pending, s.probeFence) {
		select {
		case <-s.closeCh:
			return
		case <-time.After(max(s.lease, 100*time.Millisecond)):
		}
	}
}

// probeFence performs one fencing exchange against addr: a repl_sync
// claiming our (higher) epoch, which a stale primary answers with
// err:stale_epoch as it fences itself. It reports whether the address
// is settled: fenced, or serving a current-epoch primary (then this
// server is the stale side and fences itself).
func (s *MasterServer) probeFence(addr string) bool {
	conn, sc, err := s.replSync(addr)
	if err != nil {
		return false // nobody home yet; keep probing
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(s.lease))
	if !sc.Scan() {
		return false
	}
	m, err := decodeLine(sc.Bytes())
	switch {
	case err != nil:
		return false
	case m.Op == "err" && m.Code == codeStaleEpoch:
		log.Printf("ros: master %s: fenced stale primary at %s (its epoch behind %d)", s.Addr(), addr, s.epoch.Load())
		return true
	case m.Op == "repl_snap" && m.Epoch >= s.epoch.Load():
		s.fence(m.Epoch)
		return true
	}
	return false
}

// persistEpoch writes the epoch to the configured epoch file (no-op
// without one). Best-effort: a failed write is logged, not fatal — the
// fence still protects the cluster; persistence only makes a restarted
// process remember how stale it might be.
func (s *MasterServer) persistEpoch(e int64) {
	if s.epochFile == "" {
		return
	}
	if err := os.WriteFile(s.epochFile, []byte(strconv.FormatInt(e, 10)+"\n"), 0o644); err != nil {
		log.Printf("ros: master: persisting epoch to %s: %v", s.epochFile, err)
	}
}

// LoadEpochFile reads a persisted epoch (0 when absent or unreadable).
// cmd/rosmaster uses it to carry the epoch across restarts.
func LoadEpochFile(path string) int64 {
	b, err := os.ReadFile(path)
	v, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil || perr != nil || v < 0 {
		return 0
	}
	return v
}

// splitMasterAddrs splits a comma-separated master address list,
// trimming blanks.
func splitMasterAddrs(addr string) []string {
	var out []string
	for _, p := range strings.Split(addr, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []string{addr}
	}
	return out
}

// DefaultMasterAddr resolves the CLI default master address: the
// ROS_MASTER_URI environment variable when set (comma-separated
// candidates supported, e.g. "hostA:11311,hostB:11311" for a
// warm-standby pair), else the traditional local port.
func DefaultMasterAddr() string {
	if v := strings.TrimSpace(os.Getenv("ROS_MASTER_URI")); v != "" {
		return v
	}
	return "127.0.0.1:11311"
}
