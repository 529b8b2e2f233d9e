package core

import (
	"fmt"
	"unsafe"
)

// BackingStore is a pluggable arena source for a Manager. The default
// source is the process-private heap pool; a store substitutes memory
// that outlives or escapes the process heap — mmap-backed shared-memory
// segments (internal/shm), for the paper's multi-process setting.
//
// A store-backed arena carries an opaque handle that transports can
// translate into a cross-process descriptor (segment id, slot, offset)
// via SharedHandleOf, so publishing the message costs a descriptor send
// instead of a payload copy.
type BackingStore interface {
	// Acquire returns storage of at least capacity bytes whose first
	// byte is arenaAlign-aligned, plus an opaque handle identifying the
	// allocation. ok=false declines the request (store full, capacity
	// over its limit); the Manager then falls back to the heap pool.
	Acquire(capacity int) (raw []byte, handle uint64, ok bool)
	// Release returns storage previously acquired. It is called exactly
	// once per successful Acquire, when the owning message destructs or
	// its buffer is discarded unused.
	Release(handle uint64, raw []byte)
}

// ArenaGrower is the optional BackingStore extension for stores whose
// allocations can extend IN PLACE: GrowArena returns an enlarged arena
// window whose first byte is the same address as the original
// allocation, or ok=false when the allocation cannot grow further
// (tier headroom exhausted, store closed). Address stability is the
// contract that makes the extension transparent — every pointer into
// the message, including the user's *T, stays valid. The shm store
// implements it with sparse per-slot growth headroom, so a grow that
// escapes its slot class moves to the next tier instead of failing.
type ArenaGrower interface {
	GrowArena(handle uint64, need int) ([]byte, bool)
}

// storeBox wraps a BackingStore for atomic publication on the Manager.
type storeBox struct{ bs BackingStore }

// SetBackingStore installs (or, with nil, removes) the Manager's arena
// source. Buffers already handed out keep the release path of the store
// they came from, so swapping stores mid-flight is safe.
func (m *Manager) SetBackingStore(bs BackingStore) {
	if bs == nil {
		m.store.Store(nil)
		return
	}
	m.store.Store(&storeBox{bs: bs})
}

// BackingStoreOf returns the Manager's current arena source, or nil when
// arenas come from the heap pool.
func (m *Manager) BackingStoreOf() BackingStore {
	if b := m.store.Load(); b != nil {
		return b.bs
	}
	return nil
}

// ExternalOwner takes back memory lent to NewExternalBuffer. token is
// whatever the owner needs to find the loan again; a pointer-shaped
// owner and an integer token keep the hand-over free of closures, so an
// adopted external message costs no allocation.
type ExternalOwner interface {
	ReleaseExternal(token uint64)
}

// unowned stands in for a nil owner: a non-nil extOwner is what marks a
// record's storage as external.
type unowned struct{}

func (unowned) ReleaseExternal(uint64) {}

// NewExternalBuffer wraps caller-owned memory (e.g. a mapped shared-
// memory slot on the subscriber side) as an arena buffer ready for
// Adopt. mem must be arenaAlign-aligned; owner, if non-nil, is handed
// token exactly once when the adopted message destructs or the buffer
// is discarded unused. The memory must stay valid until then.
func (m *Manager) NewExternalBuffer(mem []byte, owner ExternalOwner, token uint64) (Buffer, error) {
	if len(mem) == 0 {
		return Buffer{}, fmt.Errorf("%w: empty external buffer", ErrBufferMisuse)
	}
	if uintptr(unsafe.Pointer(&mem[0]))&(arenaAlign-1) != 0 {
		return Buffer{}, fmt.Errorf("%w: external buffer is not %d-byte aligned", ErrBufferMisuse, arenaAlign)
	}
	if owner == nil {
		owner = unowned{}
	}
	r := m.pool.bareRecord(m)
	r.attach(mem, mem)
	r.extOwner, r.extToken = owner, token
	return r.lend(), nil
}

// SharedHandleOf returns the backing-store handle of a message whose
// arena was acquired from bs, plus its whole-message size. ok=false
// means the arena came from the heap pool, external memory, or a
// DIFFERENT store — a handle is only meaningful to the store that
// issued it, so the identity check keeps a transport from resolving one
// store's handle against another's segments. The transport must then
// fall back to sending the bytes.
func SharedHandleOf[T any](m *T, bs BackingStore) (handle uint64, used int, ok bool) {
	r, err := enter(m)
	if err != nil {
		return 0, 0, false
	}
	defer r.mu.Unlock()
	if !r.hasShared || r.bs != bs {
		return 0, 0, false
	}
	return r.shared, int(r.used), true
}

// PromoteShared is SharedHandleOf with publish-time promotion: when the
// message's arena did NOT come from bs (heap pool, external memory,
// another store), the used bytes are copied ONCE into a slot acquired
// from bs and the promotion is cached on the record, so steady-state
// republishers of a heap-arena message converge to zero per-message
// fallbacks instead of shipping an inline copy forever. The copy is
// valid as a message because all SFM offsets are relative (the same
// property Clone relies on). A grow after promotion invalidates the
// cache; the next publish re-copies. promoted reports that THIS call
// performed a copy (for the transport's promotion counter); a cached or
// native handle returns promoted=false.
//
// The caller holds f for the duration of its use of the returned handle
// (the reference of the queued item being sent), which pins the promotion
// slot through the record's cached baseline reference. Growing a message
// concurrently with publishing it is an application-level race, exactly
// as on the inline path.
func (f Ref) PromoteShared(bs BackingStore) (handle uint64, used int, promoted, ok bool) {
	if bs == nil {
		return 0, 0, false, false
	}
	r, err := f.enter()
	if err != nil {
		return 0, 0, false, false
	}
	defer r.mu.Unlock()
	if r.hasShared && r.bs == bs {
		return r.shared, int(r.used), false, true
	}
	if r.promoBS == bs && r.promoUsed == r.used {
		return r.promoHandle, int(r.used), false, true
	}
	n := int(r.used)
	raw, h, acquired := bs.Acquire(n)
	if !acquired {
		return 0, 0, false, false
	}
	copy(raw[:n], r.arena[:n])
	r.dropPromoLocked()
	r.promoHandle, r.promoRaw, r.promoUsed, r.promoBS = h, raw, r.used, bs
	return h, n, true, true
}

// PromoteShared resolves m and promotes it (see Ref.PromoteShared).
func PromoteShared[T any](m *T, bs BackingStore) (handle uint64, used int, promoted, ok bool) {
	f, err := resolve(m)
	if err != nil {
		return 0, 0, false, false
	}
	return f.PromoteShared(bs)
}
