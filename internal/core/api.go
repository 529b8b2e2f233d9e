package core

import (
	"fmt"
	"reflect"
	"unsafe"
)

// New allocates a serialization-free message of type T in the default
// manager, with the capacity registered for T (or a heuristic default).
// It is the Go analog of the paper's overloaded global new operator: the
// returned pointer aims into a managed arena, so ordinary field writes are
// writes into the eventual wire buffer. The message starts Allocated with
// one reference owned by the caller.
func New[T any]() (*T, error) {
	return NewIn[T](Default(), 0)
}

// NewWithCapacity is New with an explicit arena capacity in bytes,
// overriding the registered default (the paper's IDL-declared bound).
func NewWithCapacity[T any](capacity int) (*T, error) {
	return NewIn[T](Default(), capacity)
}

// NewIn allocates a message in manager m. capacity <= 0 selects the
// registered default.
func NewIn[T any](m *Manager, capacity int) (*T, error) {
	t := reflect.TypeFor[T]()
	l, err := layoutFor(t)
	if err != nil {
		return nil, err
	}
	if l.Scalar {
		return nil, fmt.Errorf("%w: %s is not a message struct", ErrInvalidLayout, t)
	}
	if capacity <= 0 {
		capacity = defaultCapacityFor(t, l)
	}
	if capacity < int(l.Size) {
		capacity = int(l.Size)
	}
	b := m.GetBuffer(capacity)
	clear(b.rec.arena[:l.Size]) // pooled memory may be dirty; the skeleton must start zeroed
	arena, _, err := m.register(b, int(l.Size), int(l.Size), StateAllocated, t)
	if err != nil {
		return nil, err
	}
	return (*T)(unsafe.Pointer(&arena[0])), nil
}

// Adopt registers a filled buffer as a live message of type T — the
// paper's "dummy de-serialization routine": the received bytes become the
// message object with no transformation. used is the whole-message size
// (the frame length). The buffer's ownership transfers to the message,
// which starts Published with one reference owned by the caller.
func Adopt[T any](b Buffer, used int) (*T, error) {
	m, _, err := AdoptRef[T](b, used)
	return m, err
}

// AdoptRef is Adopt for transports: it also returns the caller's one
// reference as a resolved handle, so the receive path releases the
// message after the callback without looking it up by address again.
func AdoptRef[T any](b Buffer, used int) (*T, Ref, error) {
	t := reflect.TypeFor[T]()
	l, err := layoutFor(t)
	if err != nil {
		return nil, Ref{}, err
	}
	if b.rec == nil {
		return nil, Ref{}, fmt.Errorf("%w: nil buffer", ErrBufferMisuse)
	}
	arena, f, err := b.rec.mgr.register(b, used, int(l.Size), StatePublished, t)
	if err != nil {
		return nil, Ref{}, err
	}
	return (*T)(unsafe.Pointer(&arena[0])), f, nil
}

// resolve finds the live message a pointer previously returned by New or
// Adopt stands for, as a handle stamped with its current generation.
func resolve[T any](m *T) (Ref, error) {
	addr := uintptr(unsafe.Pointer(m))
	f, off := gidx.lookup(addr)
	if f.rec == nil {
		return Ref{}, staleOrUnmanaged(addr)
	}
	if off != 0 {
		return Ref{}, fmt.Errorf("%w: pointer is %d bytes inside a message, not its start",
			ErrNotManaged, off)
	}
	return f, nil
}

// enter resolves m and locks its record (see Ref.enter); the caller
// unlocks.
func enter[T any](m *T) (*record, error) {
	f, err := resolve(m)
	if err != nil {
		return nil, err
	}
	return f.enter()
}

// Retain adds a reference to the message, preventing destruction. Every
// Retain must be paired with a Release.
func Retain[T any](m *T) error {
	f, err := resolve(m)
	if err != nil {
		return err
	}
	return f.rec.retain(f.gen)
}

// Release drops a reference. When the count reaches zero the message is
// destructed and its memory recycled; Release reports whether this call
// destructed it. Using the message pointer after a destructing Release is
// a use-after-free, exactly as in the C++ design.
func Release[T any](m *T) (bool, error) {
	f, err := resolve(m)
	if err != nil {
		return false, err
	}
	return f.rec.release(f.gen)
}

// MarkPublished transitions the message to the Published state. The
// transport calls it when the message is handed over for transmission.
func MarkPublished[T any](m *T) error {
	f, err := resolve(m)
	if err != nil {
		return err
	}
	_, err = f.Publish()
	return err
}

// StateOf returns the message's life-cycle state.
func StateOf[T any](m *T) (State, error) {
	r, err := enter(m)
	if err != nil {
		return 0, err
	}
	defer r.mu.Unlock()
	return r.state, nil
}

// RefCountOf returns the current reference count (for tests and
// diagnostics).
func RefCountOf[T any](m *T) (int, error) {
	f, err := resolve(m)
	if err != nil {
		return 0, err
	}
	return int(f.rec.life.Load() & refsMask), nil
}

// Bytes returns the whole-message view — skeleton plus payload regions —
// as a zero-copy slice of the arena. These are exactly the bytes a
// publisher writes to the wire.
func Bytes[T any](m *T) ([]byte, error) {
	r, err := enter(m)
	if err != nil {
		return nil, err
	}
	defer r.mu.Unlock()
	return r.arena[:r.used], nil
}

// UsedSize returns the whole-message size in bytes.
func UsedSize[T any](m *T) (int, error) {
	b, err := Bytes(m)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// CapacityOf returns the arena capacity in bytes.
func CapacityOf[T any](m *T) (int, error) {
	r, err := enter(m)
	if err != nil {
		return 0, err
	}
	defer r.mu.Unlock()
	return len(r.arena), nil
}

// Clone performs the whole-message copy the paper generates as the copy
// constructor: because all offsets are relative, copying the used bytes
// into a fresh arena yields an independent, fully valid message.
func Clone[T any](m *T) (*T, error) {
	// Hold a reference across the whole clone: a concurrent final Release
	// would otherwise destruct the record between looking it up and using
	// it.
	f, err := NewRef(m)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	r, err := f.enter()
	if err != nil {
		return nil, err
	}
	capacity := len(r.arena)
	r.mu.Unlock() // GetBuffer must not run under r.mu
	b := r.mgr.GetBuffer(capacity)
	dst := b.rec.arena
	// Copy under the record lock so a concurrent grow cannot extend the
	// message halfway through the copy (torn descriptor/payload).
	if _, err := f.enter(); err != nil {
		b.Discard()
		return nil, err
	}
	n := copy(dst, r.arena[:r.used])
	typ := r.typ
	r.mu.Unlock()
	if _, _, err := r.mgr.register(b, n, 0, StateAllocated, typ); err != nil {
		return nil, err
	}
	return (*T)(unsafe.Pointer(&dst[0])), nil
}

// Ref is a resolved, counted reference to a message — the "copy of the
// buffer pointer" handed to ROS in Fig. 8. It keeps the arena alive until
// transmission completes, independent of the developer releasing the
// message object. It is held by value and stamped with the generation of
// the incarnation it refers to, so a transport resolves a message once
// and every later operation skips the address lookup; a copy that
// outlives the incarnation fails with ErrDestructed even after the record
// has been recycled into another message.
type Ref struct {
	rec *record
	gen uint64
}

// NewRef retains the message and returns a transport reference.
func NewRef[T any](m *T) (Ref, error) {
	f, err := resolve(m)
	if err != nil {
		return Ref{}, err
	}
	return f.Retain()
}

// enter locks the record for an operation on the referenced incarnation;
// the caller unlocks. It fails once that incarnation has been destructed.
func (f Ref) enter() (*record, error) {
	r := f.rec
	if r == nil {
		return nil, ErrDestructed
	}
	r.mu.Lock()
	if r.gen != f.gen || r.state == StateDestructed {
		r.mu.Unlock()
		return nil, ErrDestructed
	}
	return r, nil
}

// Retain takes one more reference to the same message and returns it;
// each returned Ref is released once.
func (f Ref) Retain() (Ref, error) {
	if f.rec == nil {
		return Ref{}, ErrDestructed
	}
	if err := f.rec.retain(f.gen); err != nil {
		return Ref{}, err
	}
	return f, nil
}

// Publish transitions the message to the Published state (the transport
// calls it at the hand-over for transmission) and returns the
// whole-message view. The view stays valid for as long as a reference is
// held, so it is resolved once per publish.
func (f Ref) Publish() ([]byte, error) {
	r, err := f.enter()
	if err != nil {
		return nil, err
	}
	prev := r.state
	r.state = StatePublished
	view := r.arena[:r.used]
	r.mu.Unlock()
	if prev != StatePublished {
		r.mgr.noteTransition(prev, StatePublished)
		traceEmit(TracePublish, r, StatePublished, 0)
	}
	return view, nil
}

// Bytes returns the whole-message view held by the reference, or nil if
// the reference was already released or the message destructed (instead
// of panicking on the reclaimed arena).
func (f Ref) Bytes() []byte {
	r, err := f.enter()
	if err != nil {
		return nil
	}
	defer r.mu.Unlock()
	return r.arena[:r.used]
}

// Release drops the transport reference, destructing the message if it
// was the last one. Releasing an already-released Ref deterministically
// returns ErrDestructed without disturbing other references.
func (f *Ref) Release() (bool, error) {
	rec := f.rec
	if rec == nil {
		return false, ErrDestructed
	}
	f.rec = nil
	return rec.release(f.gen)
}

// State returns the referenced message's life-cycle state, or
// StateDestructed if the reference was already released.
func (f Ref) State() State {
	r, err := f.enter()
	if err != nil {
		return StateDestructed
	}
	defer r.mu.Unlock()
	return r.state
}

// IsZero reports whether f holds nothing: the zero Ref, or one already
// released through this variable.
func (f Ref) IsZero() bool { return f.rec == nil }

// LiveMessages reports how many messages are registered process-wide.
// Tests use it to prove the Destructed transition actually reclaims.
func LiveMessages() int { return gidx.live() }

// CheckIndexInvariants validates the global record table (sorted,
// non-overlapping). It exists for property tests.
func CheckIndexInvariants() error { return gidx.checkInvariants() }
