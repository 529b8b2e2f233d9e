package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// State is the life-cycle state of a serialization-free message (Fig. 8/9
// of the paper).
type State uint8

const (
	// StateAllocated means the message exists and is owned only by the
	// developer's code.
	StateAllocated State = iota + 1
	// StatePublished means the message additionally acts as a serialized
	// buffer: it has been handed to the transport (publisher side) or was
	// received from it (subscriber side).
	StatePublished
	// StateDestructed means every reference has been released and the
	// memory has been reclaimed.
	StateDestructed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateAllocated:
		return "Allocated"
	case StatePublished:
		return "Published"
	case StateDestructed:
		return "Destructed"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// record tracks one arena through its incarnations. It is the paper's
// "record in the global message manager": start address, current size of
// the whole message, and the reference count that stands in for the C++
// buffer smart pointer.
//
// The record is the pooled unit: a heap-class record keeps its storage
// across incarnations, so GetBuffer, register, release and recycle move
// one object and the steady-state message life cycle allocates nothing.
// Everything that can reach a record after its incarnation ended — a Ref
// or Buffer copy, an address resolved just before the final release —
// carries the generation it was resolved at, and every operation checks
// it: life pairs the generation with the reference count in one word (a
// stale retain/release cannot touch the next occupant's count), and mu
// guards gen, state and used together.
type record struct {
	mu sync.Mutex // guards gen, state, used, arena growth and the promotion cache
	// life is uint32(gen)<<32 | refs. refs == 0 means the record is not
	// a live message: a loose buffer, destructed, or pooled.
	life  atomic.Uint64
	base  uintptr // numeric address of arena[0], for ordering/lookup only
	end   uintptr // base + capacity
	gen   uint64  // incarnation number; disambiguates reissued addresses and recycled records
	arena []byte  // aligned storage, len == capacity
	raw   []byte  // allocation backing arena; a heap-class record keeps it while pooled
	used  uint32  // bytes of the whole message currently in use
	state State   // stateLoose between GetBuffer and Adopt/NewIn
	mgr   *Manager
	typ   reflect.Type // skeleton type, nil for untyped adoption
	// Storage owner. Heap storage (none set) recycles with the record;
	// store-backed storage returns to bs under the shared handle, and
	// external memory is handed back to extOwner under extToken.
	bs        BackingStore
	shared    uint64 // BackingStore handle (valid when hasShared)
	hasShared bool
	extOwner  ExternalOwner // non-nil on external memory
	extToken  uint64
	// Publish-time promotion cache (PromoteShared): a copy-once shared
	// slot for a message whose own arena is not store-backed. Valid while
	// promoBS is non-nil and promoUsed matches used; released on grow
	// (stale copy) and on destruct.
	promoHandle uint64
	promoRaw    []byte
	promoUsed   uint32
	promoBS     BackingStore
}

// stateLoose is the state of a record handed out by GetBuffer and not
// yet registered: it owns storage but is no message.
const stateLoose State = 0

const refsMask = 1<<32 - 1

// lifeWord packs a generation tag with a reference count.
func lifeWord(gen uint64, refs uint32) uint64 { return gen<<32 | uint64(refs) }

// liveAt reports whether life word w belongs to incarnation gen and still
// counts a reference.
func liveAt(w, gen uint64) bool { return uint32(w>>32) == uint32(gen) && w&refsMask != 0 }

// dropPromoLocked releases the record's cached promotion slot, if any.
// Caller holds r.mu; BackingStore.Release takes only the store's own
// lock, which is never held while entering core.
func (r *record) dropPromoLocked() {
	if r.promoBS != nil {
		r.promoBS.Release(r.promoHandle, r.promoRaw)
		r.promoHandle, r.promoRaw, r.promoUsed, r.promoBS = 0, nil, 0, nil
	}
}

// genCounter issues record generations, one per incarnation: a record
// leaving the pool — at the same base address as its previous life, when
// its heap storage was recycled with it — gets a fresh generation, so
// handles, trace events and the lifecycle-debug quarantine can tell
// incarnations apart even when neither the address nor the record can.
var genCounter atomic.Uint64

// index is the process-wide address-ordered table of live records. Field
// methods (String.Set, Vector.Resize) know nothing but their own address,
// so lookups must be global — this is the paper's sfm::gmm.
type index struct {
	mu   sync.RWMutex
	recs []*record // sorted by base, non-overlapping
	// last is the record the previous lookup resolved. A message is
	// built by a run of Set/Resize calls that know only a field address
	// inside the same arena, so the next lookup almost always lands in
	// it again and skips the binary search. It is read and replaced
	// under mu's read side — a registered record's bounds only change
	// under the write side — and cleared by remove.
	last atomic.Pointer[record]
}

var gidx index

// after returns the position of the first record whose base is above
// addr. Caller holds mu.
func (ix *index) after(addr uintptr) int {
	lo, hi := 0, len(ix.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.recs[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert registers a record, keeping recs sorted by base address.
func (ix *index) insert(r *record) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	i := ix.after(r.base)
	ix.recs = append(ix.recs, nil)
	copy(ix.recs[i+1:], ix.recs[i:])
	ix.recs[i] = r
}

// remove unregisters a record by base address.
func (ix *index) remove(r *record) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.last.CompareAndSwap(r, nil)
	if i := ix.after(r.base) - 1; i >= 0 && ix.recs[i] == r {
		ix.recs = append(ix.recs[:i], ix.recs[i+1:]...)
	}
}

// extend moves a record's end address forward after an in-place arena
// growth (ArenaGrower). The table stays sorted — base is unchanged —
// but the non-overlap invariant must be re-proven: the store guarantees
// the grown window is exclusively this allocation's reservation, so no
// other record can live inside it, and the check is a defensive decline
// rather than an expected path. Reports whether the extension was
// applied.
func (ix *index) extend(r *record, newEnd uintptr) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if newEnd <= r.end {
		return true
	}
	i := ix.after(r.base) - 1
	if i < 0 || ix.recs[i] != r {
		return false
	}
	if i+1 < len(ix.recs) && ix.recs[i+1].base < newEnd {
		return false
	}
	r.end = newEnd
	return true
}

// lookup resolves the record whose arena contains addr to a handle
// stamped with its current generation, plus addr's offset from the
// arena start; the zero Ref means no live arena contains addr. This is
// the search from §4.3.3: "find the record of a message with an address
// in the middle of the message".
func (ix *index) lookup(addr uintptr) (f Ref, off uintptr) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	r := ix.last.Load()
	if r == nil || addr < r.base || addr >= r.end {
		i := ix.after(addr)
		if i == 0 {
			return Ref{}, 0
		}
		if r = ix.recs[i-1]; addr >= r.end {
			return Ref{}, 0
		}
		ix.last.Store(r)
	}
	return Ref{rec: r, gen: r.gen}, addr - r.base
}

// live reports the number of registered records (for tests and stats).
func (ix *index) live() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.recs)
}

// checkInvariants verifies sortedness and non-overlap of the record table.
// It exists for property tests.
func (ix *index) checkInvariants() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i := 1; i < len(ix.recs); i++ {
		prev, cur := ix.recs[i-1], ix.recs[i]
		if prev.base >= cur.base {
			return fmt.Errorf("record table unsorted at %d: %#x >= %#x", i, prev.base, cur.base)
		}
		if prev.end > cur.base {
			return fmt.Errorf("records overlap at %d: [%#x,%#x) and [%#x,%#x)",
				i, prev.base, prev.end, cur.base, cur.end)
		}
	}
	return nil
}

// Stats is a snapshot of a Manager's counters.
type Stats struct {
	Allocs         uint64 // messages allocated (New + Adopt)
	Frees          uint64 // messages destructed
	Grows          uint64 // payload-region extensions
	Live           int64  // currently registered messages
	BytesLive      int64  // capacity bytes currently registered
	StateAllocated int64  // live messages currently in StateAllocated
	StatePublished int64  // live messages currently in StatePublished
	MaxLive        int64  // high-water mark of Live
	MaxBytesLive   int64  // high-water mark of BytesLive
}

// Manager owns allocation pools and statistics for serialization-free
// messages. All managers share the process-wide address index, because a
// field can only identify its message by raw address. Most programs use
// Default(); tests may create private managers for isolated stats/pools.
type Manager struct {
	pool           bufPool
	store          atomic.Pointer[storeBox]
	allocs         atomic.Uint64
	frees          atomic.Uint64
	grows          atomic.Uint64
	live           atomic.Int64
	bytesLive      atomic.Int64
	stateAllocated atomic.Int64
	statePublished atomic.Int64
	maxLive        atomic.Int64
	maxBytesLive   atomic.Int64
}

// raiseMax lifts hwm to at least v (monotonic CAS loop; lock-free).
func raiseMax(hwm *atomic.Int64, v int64) {
	for {
		cur := hwm.Load()
		if v <= cur || hwm.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stateCounter returns the per-state live gauge for st, or nil for
// states that have no gauge (Destructed messages are not live).
func (m *Manager) stateCounter(st State) *atomic.Int64 {
	switch st {
	case StateAllocated:
		return &m.stateAllocated
	case StatePublished:
		return &m.statePublished
	default:
		return nil
	}
}

// noteTransition moves one live message from state `from` to state `to`
// in the per-state gauges. Either side may be untracked.
func (m *Manager) noteTransition(from, to State) {
	if c := m.stateCounter(from); c != nil {
		c.Add(-1)
	}
	if c := m.stateCounter(to); c != nil {
		c.Add(1)
	}
}

// NewManager creates a Manager with empty pools and zeroed statistics.
func NewManager() *Manager {
	return &Manager{}
}

var defaultManager = NewManager()

// Default returns the process-wide manager used by New and Adopt — the Go
// analog of the paper's global message manager object sfm::gmm.
func Default() *Manager {
	return defaultManager
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Allocs:         m.allocs.Load(),
		Frees:          m.frees.Load(),
		Grows:          m.grows.Load(),
		Live:           m.live.Load(),
		BytesLive:      m.bytesLive.Load(),
		StateAllocated: m.stateAllocated.Load(),
		StatePublished: m.statePublished.Load(),
		MaxLive:        m.maxLive.Load(),
		MaxBytesLive:   m.maxBytesLive.Load(),
	}
}

// register makes a loose buffer a live message of used bytes with one
// reference held by the caller, inserts it into the global index, and
// returns the arena with the resolved handle. It fails when b is not the
// current loan of its record (already adopted, discarded, or a copy kept
// past either), or when used is not within [skeleton, capacity].
func (m *Manager) register(b Buffer, used, skeleton int, st State, typ reflect.Type) ([]byte, Ref, error) {
	r := b.loose()
	if r == nil {
		return nil, Ref{}, fmt.Errorf("%w: nil or consumed buffer", ErrBufferMisuse)
	}
	if used < skeleton || used > len(r.arena) {
		r.mu.Unlock()
		return nil, Ref{}, fmt.Errorf("%w: used %d, skeleton %d, capacity %d",
			ErrBufferMisuse, used, skeleton, len(r.arena))
	}
	r.used, r.state, r.typ = uint32(used), st, typ
	r.mu.Unlock()
	r.life.Store(lifeWord(r.gen, 1))
	gidx.insert(r)
	m.allocs.Add(1)
	raiseMax(&m.maxLive, m.live.Add(1))
	raiseMax(&m.maxBytesLive, m.bytesLive.Add(int64(len(r.arena))))
	if c := m.stateCounter(st); c != nil {
		c.Add(1)
	}
	op := TraceAlloc
	if st == StatePublished {
		op = TraceAdopt
	}
	traceEmit(op, r, st, len(r.arena))
	return r.arena, Ref{rec: r, gen: r.gen}, nil
}

// retain adds a reference to incarnation gen of the record. It fails once
// that incarnation has been destructed — including when the record has
// since been recycled into another message: the generation tag and the
// count change together, so a stale retain never reaches the next
// occupant. (The count is 32 bits wide, like the atomic.Int32 it
// replaces; nothing holds four billion references.)
func (r *record) retain(gen uint64) error {
	for {
		w := r.life.Load()
		if !liveAt(w, gen) {
			return ErrDestructed
		}
		if r.life.CompareAndSwap(w, w+1) {
			return nil
		}
	}
}

// release drops a reference to incarnation gen and, on reaching zero,
// destructs the message. It reports whether the message was destructed
// by this call. Like retain it cannot touch a later incarnation.
func (r *record) release(gen uint64) (bool, error) {
	for {
		w := r.life.Load()
		if !liveAt(w, gen) {
			return false, ErrDestructed
		}
		if r.life.CompareAndSwap(w, w-1) {
			if w&refsMask > 1 {
				return false, nil
			}
			r.destruct()
			return true, nil
		}
	}
}

// destruct ends the incarnation whose last reference was just dropped:
// the record leaves the index and is recycled. The zero count keeps
// every other holder out, so the caller owns the record outright.
func (r *record) destruct() {
	r.mu.Lock()
	prev := r.state
	r.state = StateDestructed
	r.dropPromoLocked()
	r.mu.Unlock()
	gidx.remove(r)
	m := r.mgr
	m.frees.Add(1)
	m.live.Add(-1)
	m.bytesLive.Add(-int64(len(r.arena)))
	if c := m.stateCounter(prev); c != nil {
		c.Add(-1)
	}
	traceEmit(TraceDestruct, r, StateDestructed, 0)
	m.recycle(r, lifecycleDebug.Load())
}

// grow extends the whole message that contains fieldAddr by n bytes,
// aligned to align, zeroes the new region, and returns the region's offset
// relative to fieldAddr (the value stored in a String/Vector descriptor).
func grow(fieldAddr uintptr, n, align uint32) (rel uint32, region []byte, err error) {
	f, off := gidx.lookup(fieldAddr)
	if f.rec == nil {
		// In lifecycle-debug mode an index miss may be a dangling pointer
		// into a quarantined (destructed) arena — report it as such.
		return 0, nil, staleOrUnmanaged(fieldAddr)
	}
	var st State
	rel, region, st, err = f.growInto(uint32(off), n, align)
	if err != nil {
		return 0, nil, err
	}
	traceEmit(TraceGrow, f.rec, st, int(n))
	return rel, region, nil
}

// growInto performs the arena extension for the field at offset fieldOff
// under the record lock and returns the state it observed, so the caller
// can emit trace events after the lock is dropped.
func (f Ref) growInto(fieldOff, n, align uint32) (rel uint32, region []byte, st State, err error) {
	r, err := f.enter()
	if err != nil {
		return 0, nil, StateDestructed, err
	}
	defer r.mu.Unlock()
	start := alignUp(r.used, align)
	capacity := uint32(len(r.arena))
	if n > capacity || start > capacity-n {
		// A grow that escapes the arena's slot class asks the backing
		// store for an in-place, address-stable extension into the next
		// tier (shm stores reserve sparse per-slot headroom for exactly
		// this). Only then does the request fail: heap arenas and
		// exhausted tiers keep the historical ErrCapacityExceeded.
		if !r.growTierLocked(start, n) {
			return 0, nil, r.state, fmt.Errorf("%w: need %d bytes at offset %d, capacity %d",
				ErrCapacityExceeded, n, start, capacity)
		}
	}
	region = r.arena[start : start+n]
	// Zero from the old used mark, not just the region: the alignment gap
	// bytes become part of the wire (used advances past them), and a
	// recycled arena — heap pool buffer or reused shm slot — still holds
	// the previous occupant's bytes there. Leaving them would ship stale
	// data in every frame and make wire bytes nondeterministic.
	clear(r.arena[r.used : start+n])
	r.used = start + n
	r.mgr.grows.Add(1)
	// The descriptor always precedes the region it points at, so the
	// relative offset is positive and fits the paper's uint32 encoding.
	return start - fieldOff, region, r.state, nil
}

// growTierLocked asks the record's backing store for an in-place arena
// extension large enough to fit a region of n bytes at offset start.
// Caller holds r.mu. On success r.arena/r.raw are the enlarged window
// (same base address), the global index covers the new extent, and any
// cached promotion copy is dropped as stale.
func (r *record) growTierLocked(start, n uint32) bool {
	if !r.hasShared {
		return false
	}
	ag, ok := r.bs.(ArenaGrower)
	if !ok {
		return false
	}
	need := int(start) + int(n)
	if need < 0 { // uint32 sum overflowed int32 range on 32-bit; be safe
		return false
	}
	newArena, ok := ag.GrowArena(r.shared, need)
	if !ok || len(newArena) < need {
		return false
	}
	if &newArena[0] != &r.arena[0] {
		// The store violated address stability; refusing the growth is
		// the only safe answer — live pointers target the old base.
		return false
	}
	if !gidx.extend(r, r.base+uintptr(len(newArena))) {
		return false
	}
	delta := int64(len(newArena) - len(r.arena))
	r.arena = newArena
	r.raw = newArena
	raiseMax(&r.mgr.maxBytesLive, r.mgr.bytesLive.Add(delta))
	r.dropPromoLocked()
	return true
}

// alignUp rounds x up to the next multiple of a (a must be a power of two).
func alignUp(x, a uint32) uint32 {
	return (x + a - 1) &^ (a - 1)
}
