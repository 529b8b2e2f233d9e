package core

import (
	"math/bits"
	"sync"
	"unsafe"
)

// arenaAlign is the alignment guaranteed for the first byte of every
// arena, so that float64/uint64 skeleton fields overlay correctly.
const arenaAlign = 8

// minClass/maxClass bound the pooled size classes: 1 KiB .. 64 MiB.
// Requests above the largest class are allocated directly.
const (
	minClassShift = 10
	maxClassShift = 26
	numClasses    = maxClassShift - minClassShift + 1
)

// bufPool recycles records. The paper frees message memory when the
// reference count reaches zero; the pool turns that free into a recycle
// so steady-state publishing does not allocate. A record with heap
// storage of an exact class size goes back to its class with the storage
// still attached; a record whose storage had another owner (a backing
// store, external memory, an over-max direct allocation) goes back bare.
// Both are sync.Pools: what is not reused is the garbage collector's.
type bufPool struct {
	classes [numClasses]sync.Pool // *record with class-sized heap storage
	bare    sync.Pool             // *record without storage
}

// classFor returns the size-class slot for a raw allocation size, or -1 if
// the request exceeds the largest pooled class.
func classFor(n int) int {
	if n <= 0 {
		n = 1
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2(n))
	if shift < minClassShift {
		shift = minClassShift
	}
	if shift > maxClassShift {
		return -1
	}
	return shift - minClassShift
}

// misalign returns how many bytes into raw the first arenaAlign-aligned
// byte sits.
func misalign(raw []byte) int {
	return int(-uintptr(unsafe.Pointer(&raw[0])) & (arenaAlign - 1))
}

// bareRecord returns a record without storage.
func (p *bufPool) bareRecord(m *Manager) *record {
	if v := p.bare.Get(); v != nil {
		return v.(*record)
	}
	return &record{mgr: m}
}

// get returns a record owning heap storage with at least n usable,
// arenaAlign-aligned bytes.
func (p *bufPool) get(m *Manager, n int) *record {
	size := (n + arenaAlign - 1) &^ (arenaAlign - 1) // over-max requests are allocated directly
	if c := classFor(n); c >= 0 {
		if v := p.classes[c].Get(); v != nil {
			return v.(*record)
		}
		size = 1 << (c + minClassShift)
	}
	// The allocation is exactly the class size: padding it by arenaAlign-1
	// up front pushed any capacity sitting exactly on a class boundary
	// (1<<maxClassShift most visibly) out of its class. Go's allocator
	// aligns []byte backing arrays of this size far beyond arenaAlign in
	// practice, so the slack is almost never needed; the rare misaligned
	// allocation is retried with padding (and, no longer a class size,
	// is not pooled) instead of taxing every boundary-sized request.
	raw := make([]byte, size)
	off := misalign(raw)
	if off != 0 {
		raw = make([]byte, size+arenaAlign)
		off = misalign(raw)
	}
	r := &record{mgr: m}
	r.attach(raw, raw[off:off+size:off+size])
	return r
}

// attach gives a bare record its storage.
func (r *record) attach(raw, arena []byte) {
	r.raw, r.arena = raw, arena
	r.base = uintptr(unsafe.Pointer(&arena[0]))
	r.end = r.base + uintptr(len(arena))
}

// lend starts an incarnation: the record, storage attached, goes out as a
// loose buffer under a fresh generation.
func (r *record) lend() Buffer {
	gen := genCounter.Add(1)
	r.mu.Lock()
	r.gen, r.state, r.used, r.typ = gen, stateLoose, 0, nil
	r.mu.Unlock()
	r.life.Store(lifeWord(gen, 0))
	return Buffer{rec: r, gen: gen}
}

// recycle disposes of a record whose incarnation ended: a destructed
// message, or a buffer discarded unused. Storage that has an owner goes
// back to it; class-sized heap storage stays attached to the record in
// its class pool. With quarantined set (a message destructed in
// lifecycle-debug mode) nothing recirculates: the heap allocation is
// pinned by a tombstone and the record is left dead, so a stale handle
// or field pointer is detected instead of resolving to a later occupant.
// For store-backed and external storage the tombstone is advisory — the
// owner, not this process's allocator, decides when the range is reused.
func (m *Manager) recycle(r *record, quarantined bool) {
	switch {
	case r.hasShared:
		if quarantined {
			quarantine(r, nil)
		}
		r.bs.Release(r.shared, r.raw)
	case r.extOwner != nil:
		if quarantined {
			quarantine(r, nil)
		}
		r.extOwner.ReleaseExternal(r.extToken)
	case quarantined:
		quarantine(r, r.raw)
	default:
		if c := classFor(len(r.raw)); c >= 0 && len(r.raw) == 1<<(c+minClassShift) {
			m.pool.classes[c].Put(r)
			return
		}
	}
	if quarantined {
		return
	}
	r.raw, r.arena, r.base, r.end = nil, nil, 0, 0
	r.bs, r.shared, r.hasShared, r.extOwner, r.extToken = nil, 0, false, nil, 0
	m.pool.bare.Put(r)
}

// Buffer is a loose arena obtained from a Manager: storage that is not a
// message yet. Transports read incoming frames directly into Bytes() and
// then Adopt the buffer as a live message, so the socket read is the only
// copy on the receive path. It is a value handle onto the pooled record
// that will carry the message, stamped with the generation of this loan:
// a copy used after Adopt or Discard finds the stamp spent and does
// nothing.
type Buffer struct {
	rec *record
	gen uint64
}

// GetBuffer returns an arena buffer with at least capacity usable bytes,
// aligned to arenaAlign. When the Manager has a BackingStore, the store
// is tried first; a declined request falls back to the heap pool.
func (m *Manager) GetBuffer(capacity int) Buffer {
	if capacity < 16 {
		capacity = 16
	}
	if box := m.store.Load(); box != nil {
		if raw, h, ok := box.bs.Acquire(capacity); ok {
			r := m.pool.bareRecord(m)
			r.attach(raw, raw)
			r.bs, r.shared, r.hasShared = box.bs, h, true
			return r.lend()
		}
	}
	return m.pool.get(m, capacity).lend()
}

// loose locks the record while b is its current, unconsumed loan; the
// caller unlocks. It returns nil for the zero Buffer and for a copy kept
// past Adopt or Discard.
func (b Buffer) loose() *record {
	r := b.rec
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.gen != b.gen || r.state != stateLoose {
		r.mu.Unlock()
		return nil
	}
	return r
}

// Bytes exposes the aligned arena storage. Callers fill it (e.g. from a
// socket) before Adopt. It is nil once the buffer was adopted or
// discarded.
func (b Buffer) Bytes() []byte {
	r := b.loose()
	if r == nil {
		return nil
	}
	defer r.mu.Unlock()
	return r.arena
}

// Discard returns an unused buffer to its source (heap pool or backing
// store). After Adopt, or a second time, it does nothing.
func (b Buffer) Discard() {
	r := b.loose()
	if r == nil {
		return
	}
	r.state = StateDestructed
	r.mu.Unlock()
	r.mgr.recycle(r, false)
}
