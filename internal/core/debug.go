package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements lifecycle-debug mode: the guard against the
// address-reuse (ABA) hazard of a pooled-arena design.
//
// Every incarnation of a record carries a generation stamped from a
// process-wide counter when the record leaves the pool. Without debug
// mode a destructed record returns to the pool with its arena and is
// reissued at the same base address; a dangling String/Vector descriptor
// pointer from the previous incarnation then resolves — by address — to
// the *new* message, and a write through it silently grows or corrupts
// that message. Handles (Ref, Buffer) carry their generation and are
// refused once it has passed, recycled record or not; the 8-byte wire
// descriptors have no room for one (the format is fixed), so for raw
// pointers the stamp lives in the manager's records and, in debug mode,
// in a tombstone side-table instead of the wire bytes.
//
// With SetLifecycleDebug(true):
//
//   - destructed arenas are quarantined, not pooled: the raw buffer is
//     parked in a bounded tombstone table and its record is left dead,
//     so neither the pool nor the Go allocator can reissue the address
//     range while the tombstone lives;
//   - any address lookup (grow, resolve) that lands inside a
//     tombstoned range fails with ErrStaleGeneration naming the dead
//     incarnation's generation, and emits a TraceStale event through
//     the trace hook — the corruption is detected, not silent.

// lifecycleDebug gates the quarantine. Checked only on lookup misses
// and at destruction, so the fast path is untouched.
var lifecycleDebug atomic.Bool

// quarantineMax bounds the tombstone table; beyond it the oldest
// quarantined buffer is surrendered to the GC (its address may then be
// reused, as without debug mode — the guard is a sliding window, sized
// to catch the short dangling-access races that matter in practice).
const quarantineMax = 256

// tombstone remembers one destructed arena incarnation.
type tombstone struct {
	base, end uintptr
	gen       uint64
	typ       string
	when      time.Time
	raw       []byte // pins the allocation so the address cannot recirculate
}

var tombs struct {
	mu   sync.Mutex
	list []*tombstone // FIFO; linear scans are fine at quarantineMax
}

// SetLifecycleDebug enables or disables lifecycle-debug mode. Disabling
// drops all tombstones (their buffers return to the garbage collector,
// not the pool). Intended for tests and diagnosis; the quarantine makes
// message destruction deliberately leaky while enabled.
func SetLifecycleDebug(on bool) {
	lifecycleDebug.Store(on)
	if !on {
		tombs.mu.Lock()
		tombs.list = nil
		tombs.mu.Unlock()
	}
}

// LifecycleDebugEnabled reports whether the quarantine is active.
func LifecycleDebugEnabled() bool { return lifecycleDebug.Load() }

// quarantine parks a destructed record's buffer in the tombstone table.
func quarantine(r *record, raw []byte) {
	tb := &tombstone{
		base: r.base,
		end:  r.end,
		gen:  r.gen,
		typ:  typeName(r.typ),
		when: time.Now(),
		raw:  raw,
	}
	tombs.mu.Lock()
	tombs.list = append(tombs.list, tb)
	if len(tombs.list) > quarantineMax {
		tombs.list = tombs.list[1:]
	}
	tombs.mu.Unlock()
}

// findTombstone locates the tombstone covering addr, if any.
func findTombstone(addr uintptr) *tombstone {
	tombs.mu.Lock()
	defer tombs.mu.Unlock()
	for _, tb := range tombs.list {
		if addr >= tb.base && addr < tb.end {
			return tb
		}
	}
	return nil
}

// staleOrUnmanaged classifies a failed index lookup: in debug mode an
// address inside a quarantined arena is a detected stale access (the
// ABA hazard caught in the act); otherwise it is simply unmanaged.
func staleOrUnmanaged(addr uintptr) error {
	if !lifecycleDebug.Load() {
		return ErrNotManaged
	}
	tb := findTombstone(addr)
	if tb == nil {
		return ErrNotManaged
	}
	if f := traceHook.Load(); f != nil {
		(*f)(TraceEvent{
			Op:    TraceStale,
			Base:  tb.base,
			Gen:   tb.gen,
			Type:  tb.typ,
			State: StateDestructed,
			Time:  time.Now(),
		})
	}
	return fmt.Errorf("%w: address %#x is inside arena %#x..%#x destructed at generation %d (%s)",
		ErrStaleGeneration, addr, tb.base, tb.end, tb.gen, tb.typ)
}
