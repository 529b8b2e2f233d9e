package shm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"rossf/internal/obs"
)

// Mapper is the subscriber side of the transport for one publisher
// connection: it lazily maps the publisher's segment files, resolves
// descriptors to the exact bytes the publisher wrote, and keeps the
// peer lease alive with a heartbeat. Resolutions pin the whole mapper —
// Close defers the heartbeat stop, the control unmap, and the data
// unmaps until every resolved message has been released, so a message
// adopted into a callback (or parked in a dispatch queue) can never see
// its lease reaped or its memory unmapped underneath it.
type Mapper struct {
	mu          sync.Mutex
	prefix      string
	peer        int
	gen         uint32 // lease generation from the handshake; 0 disables validation
	stats       *obs.ShmStats
	segs        map[uint64]*segment
	outstanding int
	closed      bool
	ctl         []byte
	stopHB      chan struct{}
	hbDone      chan struct{}

	// held is a slab of the outstanding resolutions, indexed by the high
	// half of a resolution token; freeHeld heads the list of vacant
	// entries (linked through next; indices are 1-based, 0 = none).
	held     []heldSlot
	freeHeld uint32
}

// NewMapper creates a mapper for the store at prefix, holding peer
// lease id peer under lease generation gen (all from the connection
// handshake; gen 0 means the publisher predates lease generations and
// disables validation). stats may be nil.
func NewMapper(prefix string, peer int, gen uint32, stats *obs.ShmStats) (*Mapper, error) {
	if !mmapSupported {
		return nil, ErrUnavailable
	}
	if peer < 0 || peer >= MaxPeers {
		return nil, fmt.Errorf("shm: peer id %d out of range", peer)
	}
	if stats == nil {
		stats = new(obs.ShmStats)
	}
	return &Mapper{
		prefix: prefix,
		peer:   peer,
		gen:    gen,
		stats:  stats,
		segs:   make(map[uint64]*segment),
	}, nil
}

// StartHeartbeat maps the publisher's control segment and begins
// refreshing this peer's heartbeat every interval. Must be called once,
// before the first Resolve deadline matters; the heartbeat runs until
// the mapper is closed AND drained, because the lease is what keeps
// outstanding resolutions' slots from being reclaimed.
func (m *Mapper) StartHeartbeat(interval time.Duration) error {
	f, err := os.OpenFile(ctlPath(m.prefix), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if int(fi.Size()) < ctlSize() {
		return fmt.Errorf("%w: control segment truncated", ErrBadSegment)
	}
	ctl, err := mapFile(f, ctlSize())
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(ctl[0:]) != ctlMagic ||
		binary.LittleEndian.Uint32(ctl[4:]) != shmVer {
		unmapFile(ctl)
		return fmt.Errorf("%w: control segment bad magic/version", ErrBadSegment)
	}
	entry := peerAt(ctl, m.peer)
	if m.gen != 0 && entry.gen.Load() != m.gen {
		unmapFile(ctl)
		return fmt.Errorf("shm: peer %d lease lost before heartbeat start", m.peer)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.ctl != nil {
		unmapFile(ctl)
		return fmt.Errorf("shm: heartbeat already started or mapper closed")
	}
	m.ctl = ctl
	m.stopHB = make(chan struct{})
	m.hbDone = make(chan struct{})
	entry.heartbeat.Store(time.Now().UnixNano())
	// Captured locally: finish nils the fields under m.mu while this
	// goroutine runs.
	stop, done := m.stopHB, m.hbDone
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// A changed generation means our lease was reaped and the
				// entry may belong to a new subscriber: stop writing into
				// it rather than spuriously keeping someone else's lease
				// fresh.
				if m.gen != 0 && entry.gen.Load() != m.gen {
					return
				}
				entry.heartbeat.Store(time.Now().UnixNano())
			}
		}
	}()
	return nil
}

// heldSlot is one outstanding resolution. gen counts the entry's uses:
// a token carries the gen it was minted under, so releasing a token
// twice — or one from an earlier use of the entry — finds a different
// gen and does nothing.
type heldSlot struct {
	st   *slotState // nil while the entry is vacant
	gen  uint32
	next uint32
}

// leaseHeldLocked reports whether this mapper's peer lease is still the
// one the publisher issued it. With no control mapping or no lease
// generation (direct test construction, old-build publisher) there is
// nothing to check and the lease is assumed held.
func (m *Mapper) leaseHeldLocked() bool {
	if m.ctl == nil || m.gen == 0 {
		return true
	}
	return peerAt(m.ctl, m.peer).gen.Load() == m.gen
}

// Resolve maps a descriptor to its payload bytes and returns the token
// that ReleaseExternal takes when the subscriber is done with the
// message (internal/ros hands mapper and token to the adopted message's
// record). A generation mismatch — the slot was recycled, or this
// peer's lease was reaped — fails with an error wrapping
// core.ErrStaleGeneration.
func (m *Mapper) Resolve(d Descriptor) ([]byte, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, ErrClosed
	}
	if !m.leaseHeldLocked() {
		return nil, 0, ErrStale
	}
	seg := m.segs[d.SegID]
	if seg == nil {
		var err error
		seg, err = openSegment(segPath(m.prefix, d.SegID), d.SegID)
		if err != nil {
			return nil, 0, err
		}
		m.segs[d.SegID] = seg
		m.stats.SegmentsMapped.Add(1)
		m.stats.BytesShared.Add(int64(seg.size()))
	}
	// Length is bounded by the slot STRIDE, not the slot class: a
	// message that grew in place carries a length beyond slotSize, and
	// the stride-wide window is mapped (sparsely) on this side too.
	if int(d.Slot) >= seg.slotCount || int(d.Length) > seg.stride {
		return nil, 0, fmt.Errorf("%w: descriptor out of bounds (slot %d, len %d)", ErrBadSegment, d.Slot, d.Length)
	}
	st := seg.slot(int(d.Slot))
	bit := uint32(1) << uint(m.peer)
	// Generation and ownership must both check out: a cleared owner bit
	// means the publisher's reaper already took back this reference
	// (lease expired), so the bytes may be recycled at any moment.
	if st.gen.Load() != d.Gen || st.owner.Load()&bit == 0 {
		return nil, 0, ErrStale
	}
	m.outstanding++
	i := m.freeHeld
	if i == 0 {
		m.held = append(m.held, heldSlot{})
		i = uint32(len(m.held))
	} else {
		m.freeHeld = m.held[i-1].next
	}
	e := &m.held[i-1]
	e.st = st
	return seg.dataSpan(int(d.Slot), int(d.Length)), uint64(i)<<32 | uint64(e.gen), nil
}

// ReleaseExternal returns the resolution token names: the slot
// reference goes back and the mapper is unpinned. It implements
// core.ExternalOwner, and is idempotent by generation — the first call
// retires the token, every later one is a no-op.
func (m *Mapper) ReleaseExternal(token uint64) {
	i := uint32(token >> 32)
	m.mu.Lock()
	if i == 0 || int(i) > len(m.held) || m.held[i-1].st == nil || m.held[i-1].gen != uint32(token) {
		m.mu.Unlock()
		return
	}
	e := &m.held[i-1]
	// If the lease was reaped while this resolution was held, the
	// reaper already returned the reference — and the peer id may
	// have been re-leased, in which case the slot bit now counts
	// for the new subscriber and must not be touched.
	if m.leaseHeldLocked() {
		releaseShared(e.st, m.peer)
	}
	e.st, e.next = nil, m.freeHeld
	e.gen++
	m.freeHeld = i
	m.outstanding--
	done := m.closed && m.outstanding == 0
	m.mu.Unlock()
	if done {
		m.finish()
	}
}

// Outstanding reports resolutions not yet released (test visibility).
func (m *Mapper) Outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.outstanding
}

// Close marks the mapper done. If no resolutions are outstanding the
// mapper tears down immediately; otherwise the heartbeat, the control
// mapping, and the data mappings all stay alive until the last resolved
// message is released — a subscriber must heartbeat for as long as it
// may hold slot references, or the publisher's reaper would recycle
// slots still being read.
func (m *Mapper) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	drained := m.outstanding == 0
	m.mu.Unlock()
	if drained {
		m.finish()
	}
}

// finish tears the mapper down once it is closed and drained: stop the
// heartbeat, publish the drained sentinel so the publisher's reaper can
// free the peer entry immediately, then unmap everything. Called
// exactly once, by whichever of Close / the last release observed
// closed && outstanding == 0.
func (m *Mapper) finish() {
	m.mu.Lock()
	stop, hbDone := m.stopHB, m.hbDone
	ctl := m.ctl
	m.ctl, m.stopHB, m.hbDone = nil, nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-hbDone
		// Only stamp the sentinel while the lease is still ours — after a
		// reap the entry may already belong to a new subscriber.
		if entry := peerAt(ctl, m.peer); m.gen == 0 || entry.gen.Load() == m.gen {
			entry.heartbeat.Store(hbDrained)
		}
	}
	unmapFile(ctl)
	m.unmapAll()
}

// unmapAll releases every data-segment mapping. Called only after
// close with zero outstanding resolutions.
func (m *Mapper) unmapAll() {
	m.mu.Lock()
	segs := m.segs
	m.segs = make(map[uint64]*segment)
	m.mu.Unlock()
	for _, seg := range segs {
		m.stats.SegmentsMapped.Add(-1)
		m.stats.BytesShared.Add(-int64(seg.size()))
		seg.close(false)
	}
}
