// Package netsim simulates an inter-machine network link on top of a
// local connection. The paper's Fig. 16 experiment runs on two machines
// joined by an Intel 82599 10 GbE NIC; this package reproduces that cost
// model — transmission time proportional to bytes at the configured
// bandwidth, plus fixed propagation latency — by pacing the bytes flowing
// through a wrapped net.Conn. The middleware code under test is byte-for-
// byte the same as on the loopback path; only the dialer changes.
//
// Beyond the healthy-link cost model, a Link can carry a Fault plan that
// injects the failure modes of a degraded production link — probabilistic
// frame drop, byte corruption, read/write stalls, mid-stream connection
// resets, and a full Partition/Heal switch — so the middleware's
// hardening (checksums, reconnect backoff, write deadlines) can be
// exercised deterministically in tests (internal/chaostest).
package netsim

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TenGigE is the paper's inter-machine link: 10 Gb/s with a typical
// same-rack round-trip of ~100µs (50µs each way).
var TenGigE = Link{BitsPerSecond: 10e9, Latency: 50 * time.Microsecond}

// GigE is a commodity 1 Gb/s link for sensitivity studies.
var GigE = Link{BitsPerSecond: 1e9, Latency: 50 * time.Microsecond}

// Link describes a simulated network link.
type Link struct {
	// BitsPerSecond is the link bandwidth; 0 disables pacing.
	BitsPerSecond float64
	// Latency is the one-way propagation delay added to every byte.
	Latency time.Duration
	// Fault, when non-nil, injects failures into every wrapped
	// connection. The same Fault may back many links and connections;
	// its Partition/Heal switch then severs them all at once.
	Fault *Fault
}

// maxTxSeconds bounds txTime before the float64→Duration conversion
// overflows int64 nanoseconds (adversarially tiny bandwidths would
// otherwise wrap to negative durations).
const maxTxSeconds = float64(math.MaxInt64 / int64(time.Second))

// txTime returns how long n bytes occupy the wire. It is clamped: the
// result is never negative and saturates at the maximum Duration, and
// non-finite or non-positive bandwidths disable pacing, so pacing of N
// bytes is monotone in N for every bandwidth value.
func (l Link) txTime(n int) time.Duration {
	if n <= 0 || !(l.BitsPerSecond > 0) || math.IsInf(l.BitsPerSecond, 1) {
		return 0
	}
	sec := float64(n) * 8 / l.BitsPerSecond
	if !(sec > 0) {
		return 0
	}
	if sec >= maxTxSeconds {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec * float64(time.Second))
}

// Dialer returns a dial function (compatible with ros.WithDialer) that
// routes every connection through the link.
func (l Link) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if l.Fault != nil && l.Fault.isPartitioned() {
			return nil, ErrPartitioned
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return l.Wrap(c), nil
	}
}

// Wrap places an established connection behind the link. Each direction
// is paced independently (full duplex): reads of publisher frames are
// delayed as if the bytes had crossed the simulated wire, and writes are
// delayed symmetrically. When the link carries a Fault, the fault layer
// sits between the pacing and the real connection.
func (l Link) Wrap(c net.Conn) net.Conn {
	if l.Fault != nil {
		c = l.Fault.wrap(c)
	}
	return &pacedConn{conn: c, link: l}
}

// pacedConn delays reads and writes to match the link's cost model. Each
// direction keeps its own wire-busy clock, so pipelined messages queue
// behind each other exactly as on a saturated NIC.
type pacedConn struct {
	conn net.Conn
	link Link

	readMu    sync.Mutex
	readFree  time.Time
	writeMu   sync.Mutex
	writeFree time.Time
}

var _ net.Conn = (*pacedConn)(nil)

// pace computes the arrival time for n bytes on one direction's wire and
// sleeps until then.
func pace(mu *sync.Mutex, free *time.Time, l Link, n int) {
	mu.Lock()
	now := time.Now()
	start := *free
	if start.Before(now) {
		start = now
	}
	done := start.Add(l.txTime(n))
	*free = done
	mu.Unlock()
	arrival := done.Add(l.Latency)
	if d := time.Until(arrival); d > 0 {
		time.Sleep(d)
	}
}

func (p *pacedConn) Read(b []byte) (int, error) {
	n, err := p.conn.Read(b)
	if n > 0 {
		pace(&p.readMu, &p.readFree, p.link, n)
	}
	return n, err
}

func (p *pacedConn) Write(b []byte) (int, error) {
	if len(b) > 0 {
		pace(&p.writeMu, &p.writeFree, p.link, len(b))
	}
	return p.conn.Write(b)
}

func (p *pacedConn) Close() error                       { return p.conn.Close() }
func (p *pacedConn) LocalAddr() net.Addr                { return p.conn.LocalAddr() }
func (p *pacedConn) RemoteAddr() net.Addr               { return p.conn.RemoteAddr() }
func (p *pacedConn) SetDeadline(t time.Time) error      { return p.conn.SetDeadline(t) }
func (p *pacedConn) SetReadDeadline(t time.Time) error  { return p.conn.SetReadDeadline(t) }
func (p *pacedConn) SetWriteDeadline(t time.Time) error { return p.conn.SetWriteDeadline(t) }

// ErrPartitioned reports an operation attempted while the fault plan's
// partition switch is on.
var ErrPartitioned = errors.New("netsim: link partitioned")

// ErrInjectedReset reports a connection reset injected by the fault
// plan.
var ErrInjectedReset = errors.New("netsim: injected connection reset")

// Fault is a scriptable fault plan. Attach one to a Link and every
// connection wrapped by that link misbehaves according to the
// probabilities below. All methods are safe for concurrent use; the
// zero value injects nothing.
//
// Each probability is evaluated independently per I/O operation, in
// both directions: a Write can be dropped or corrupted before it
// reaches the wire, and a Read's bytes can be lost or corrupted as
// they arrive. At the transport layer an operation is a whole frame
// header or payload — modelling a lossy link below TCP's guarantees,
// the regime the middleware's checksums and resynchronization must
// survive.
type Fault struct {
	// DropProb is the probability an operation's bytes are silently
	// lost: a Write is reported as fully written but never transmitted;
	// a Read's bytes are discarded and the read continues. Models
	// packet loss on a link without reliable delivery.
	DropProb float64
	// CorruptProb is the probability an operation has one random bit
	// flipped. Models bit errors that slip past link-layer CRCs.
	CorruptProb float64
	// StallProb is the probability a Read or Write pauses for Stall
	// before proceeding. Models congestion, bufferbloat, or a peer
	// wedged in GC.
	StallProb float64
	// Stall is the stall duration (default 100ms when StallProb > 0).
	Stall time.Duration
	// ResetProb is the probability an operation tears the connection
	// down mid-stream. Models RST injection, NAT timeouts, or a peer
	// crash.
	ResetProb float64
	// Seed makes the fault schedule reproducible; 0 seeds from the
	// clock.
	Seed int64
	// Grace exempts each connection's first Grace Read/Write operations
	// from the probabilistic faults above, so connections establish
	// (handshake, type negotiation) before the link degrades — the
	// interesting regime for recovery machinery. Partition ignores
	// Grace. Zero means faults apply from the first byte.
	Grace int

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned bool
	conns       map[net.Conn]struct{}

	drops, corruptions, stalls, resets atomic.Uint64
}

// FaultStats is a snapshot of injected-fault counters.
type FaultStats struct {
	Drops       uint64 // writes silently discarded
	Corruptions uint64 // writes with a flipped byte
	Stalls      uint64 // operations delayed by Stall
	Resets      uint64 // connections torn down mid-stream
}

// Stats returns the counters accumulated so far.
func (f *Fault) Stats() FaultStats {
	return FaultStats{
		Drops:       f.drops.Load(),
		Corruptions: f.corruptions.Load(),
		Stalls:      f.stalls.Load(),
		Resets:      f.resets.Load(),
	}
}

// Partition flips the partition switch: every existing connection under
// this fault plan is severed and every future dial or I/O fails until
// Heal is called.
func (f *Fault) Partition() {
	f.mu.Lock()
	f.partitioned = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Heal clears the partition switch; new dials succeed again. Severed
// connections stay dead — recovery is the reconnect machinery's job.
func (f *Fault) Heal() {
	f.mu.Lock()
	f.partitioned = false
	f.mu.Unlock()
}

func (f *Fault) isPartitioned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partitioned
}

// roll draws one Bernoulli sample under the plan's seeded generator.
func (f *Fault) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		seed := f.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		f.rng = rand.New(rand.NewSource(seed))
	}
	return f.rng.Float64() < p
}

// intn draws a bounded sample for picking the corrupted byte.
func (f *Fault) intn(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return f.rng.Intn(n)
}

func (f *Fault) stallFor() time.Duration {
	if f.Stall > 0 {
		return f.Stall
	}
	return 100 * time.Millisecond
}

// wrap registers the connection (so Partition can sever it) and returns
// the faulty view of it.
func (f *Fault) wrap(c net.Conn) net.Conn {
	f.mu.Lock()
	if f.conns == nil {
		f.conns = make(map[net.Conn]struct{})
	}
	f.conns[c] = struct{}{}
	f.mu.Unlock()
	return &faultConn{conn: c, f: f}
}

func (f *Fault) forget(c net.Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
}

// faultConn injects the plan's failures around a real connection.
type faultConn struct {
	conn net.Conn
	f    *Fault
	ops  atomic.Int64
}

var _ net.Conn = (*faultConn)(nil)

// misbehave runs the per-operation partition/reset/stall checks shared
// by both directions. It reports whether the caller should fail with
// err, and whether this operation is within the connection's grace
// window (probabilistic faults suppressed).
func (c *faultConn) misbehave() (graced bool, err error) {
	if c.f.isPartitioned() {
		c.conn.Close()
		return false, ErrPartitioned
	}
	if c.ops.Add(1) <= int64(c.f.Grace) {
		return true, nil
	}
	if c.f.roll(c.f.ResetProb) {
		c.f.resets.Add(1)
		c.conn.Close()
		return false, ErrInjectedReset
	}
	if c.f.roll(c.f.StallProb) {
		c.f.stalls.Add(1)
		time.Sleep(c.f.stallFor())
	}
	return false, nil
}

func (c *faultConn) Read(b []byte) (int, error) {
	graced, ferr := c.misbehave()
	if ferr != nil {
		return 0, ferr
	}
	for {
		n, err := c.conn.Read(b)
		if c.f.isPartitioned() { // bytes that arrive once the link is cut never did
			c.conn.Close()
			return 0, ErrPartitioned
		}
		if graced || n == 0 {
			return n, err
		}
		if c.f.roll(c.f.DropProb) {
			// The bytes were lost on the wire: the receiver never sees
			// them, and the stream continues past the gap.
			c.f.drops.Add(1)
			if err != nil {
				return 0, err
			}
			continue
		}
		if c.f.roll(c.f.CorruptProb) {
			c.f.corruptions.Add(1)
			b[c.f.intn(n)] ^= 1 << uint(c.f.intn(8))
		}
		return n, err
	}
}

func (c *faultConn) Write(b []byte) (int, error) {
	graced, ferr := c.misbehave()
	if ferr != nil {
		return 0, ferr
	}
	if graced || len(b) == 0 {
		return c.conn.Write(b)
	}
	if c.f.roll(c.f.DropProb) {
		c.f.drops.Add(1)
		return len(b), nil // acknowledged, never transmitted
	}
	if c.f.roll(c.f.CorruptProb) {
		c.f.corruptions.Add(1)
		cp := append([]byte(nil), b...)
		cp[c.f.intn(len(cp))] ^= 1 << uint(c.f.intn(8))
		b = cp
	}
	return c.conn.Write(b)
}

func (c *faultConn) Close() error {
	c.f.forget(c.conn)
	return c.conn.Close()
}

func (c *faultConn) LocalAddr() net.Addr                { return c.conn.LocalAddr() }
func (c *faultConn) RemoteAddr() net.Addr               { return c.conn.RemoteAddr() }
func (c *faultConn) SetDeadline(t time.Time) error      { return c.conn.SetDeadline(t) }
func (c *faultConn) SetReadDeadline(t time.Time) error  { return c.conn.SetReadDeadline(t) }
func (c *faultConn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }
