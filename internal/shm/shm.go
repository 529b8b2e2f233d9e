// Package shm is the shared-memory inter-process transport: mmap-backed
// arena segments created by a publisher, reference-counted across
// process boundaries, and addressed by tiny descriptors carried over a
// per-link named FIFO (queue_unix.go) that the TCPROS-style connection
// negotiates.
//
// The split of responsibilities mirrors the paper's transparency goal:
//
//   - Store (publisher side) implements core.BackingStore, so ordinary
//     core.New[T] allocations land directly in a shared segment — field
//     writes ARE cross-process-visible wire bytes, and publishing a
//     message to a same-machine subscriber costs a 24-byte descriptor
//     instead of a payload copy.
//   - Mapper (subscriber side) resolves descriptors to mapped memory and
//     hands the bytes to core.Adopt, so the callback sees the exact
//     arena the publisher wrote — zero payload copies end to end.
//   - A per-subscriber lease (heartbeat word in a control segment) lets
//     the publisher reclaim the reference counts of crashed
//     subscribers; slot generations extend the life-cycle-debug ABA
//     guard across processes, so a descriptor that outlives its slot is
//     rejected as core.ErrStaleGeneration instead of reading recycled
//     bytes.
//
// Everything here degrades gracefully: Available reports whether the
// platform supports the transport at all, and every failure mode at the
// ros layer (remote peer, mapping failure, old build) falls back to TCP.
package shm

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"rossf/internal/core"
	"rossf/internal/obs"
)

// Segment geometry. Slot sizes are powers of two between minSlotSize
// and maxSlotSize; a segment holds slotCount equal slots plus a header
// ring of per-slot state. Slots are laid out at a STRIDE larger than
// the slot size, and the file is truncated to the full strided extent
// at creation: tmpfs files are sparse, so the reservation costs nothing
// until written, and a message that outgrows its slot class extends IN
// PLACE into its own stride headroom (core.ArenaGrower) instead of
// falling back to the heap — arena addresses never move under a live
// message. Capacities above maxSlotSize get a dedicated single-slot
// "large-object" segment (same descriptor format, same lease
// machinery) rather than being declined.
const (
	segMagic  = 0x53485352 // "RSHS" little-endian
	ctlMagic  = 0x43485352 // "RSHC"
	shmVer    = 2          // v2: strided sparse layout (+32 u64 stride)
	pageSize  = 4096
	hdrBytes  = 64 // segment/control file header
	slotHdr   = 64 // per-slot header ring entry
	peerEntry = 64 // per-peer lease table entry

	minSlotSize = 4096
	maxSlotSize = 1 << 26

	// slotGrowth is the stride multiplier for pooled slots: each slot
	// reserves slotGrowth× its class size of sparse headroom, so a grow
	// can cross log2(slotGrowth) size classes without moving.
	slotGrowth = 16

	// maxLargeBytes caps a single message (Descriptor.Length is u32 and
	// large-object reservations double the rounded capacity).
	maxLargeBytes = 1 << 31

	// largeCacheSegs bounds idle large-object segments kept mapped for
	// reuse; extras are unlinked on release.
	largeCacheSegs = 2

	// MaxPeers bounds simultaneous shm subscribers per publisher
	// process: slot ownership is a 32-bit per-peer bitmask.
	MaxPeers = 32

	// targetSegBytes sizes new segments: slotCount ≈ targetSegBytes /
	// slotSize, clamped to [minSlots, maxSlots].
	targetSegBytes = 8 << 20
	minSlots       = 4
	maxSlots       = 512
)

// MaxMessageBytes is the largest message capacity the transport can
// serve from shared memory. Anything at or below it that still falls
// back to TCP is a bug (the fallback reason tells which); above it the
// oversized fallback is by design.
const MaxMessageBytes = maxLargeBytes

// Peer lease states in the control segment.
const (
	peerFree     = 0
	peerActive   = 1
	peerDraining = 2
)

// hbDrained is the heartbeat sentinel a mapper publishes after its last
// slot reference has been released: the peer holds nothing, so the
// publisher's reaper may free the entry immediately, regardless of
// lease age or process liveness. AcquirePeer always stamps a real
// (positive) timestamp, so the sentinel is unambiguous.
const hbDrained = 0

// Errors surfaced by the transport. ErrStale wraps
// core.ErrStaleGeneration so callers can use a single errors.Is check
// for both in-process and cross-process dangling accesses.
var (
	ErrUnavailable = errors.New("shm: shared-memory transport unavailable on this platform")
	ErrBadSegment  = errors.New("shm: malformed or incompatible segment")
	ErrNoPeerSlot  = errors.New("shm: no free peer lease slot")
	ErrClosed      = errors.New("shm: store closed")
)

// ErrStale reports a descriptor whose generation no longer matches its
// slot — the cross-process form of a dangling pointer.
var ErrStale = fmt.Errorf("shm: descriptor generation mismatch: %w", core.ErrStaleGeneration)

// Available reports whether this platform can run the shared-memory
// transport (mmap support and a writable backing directory).
func Available() bool {
	if !mmapSupported {
		return false
	}
	return Dir() != ""
}

// Dir returns the directory backing shared segments: ROSSF_SHM_DIR if
// set, /dev/shm where present (a tmpfs, so segments never touch disk),
// else the OS temp directory. Empty means no usable directory.
func Dir() string {
	if d := os.Getenv("ROSSF_SHM_DIR"); d != "" {
		return d
	}
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

var (
	enableOnce   sync.Once
	defaultStore *Store
	defaultErr   error
)

// Enable creates the process-wide default Store and installs it as the
// default manager's backing store, so every core.New allocation in the
// process becomes shareable. Idempotent; subsequent calls return the
// first result. Intended for main packages — libraries and tests should
// create their own Store.
func Enable() (*Store, error) {
	enableOnce.Do(func() {
		defaultStore, defaultErr = NewStore(Options{Stats: obs.Default().Shm()})
		if defaultErr == nil {
			core.Default().SetBackingStore(defaultStore)
		}
	})
	return defaultStore, defaultErr
}

// slotSizeFor rounds a capacity up to the pooled slot-size class
// serving it, or 0 when the capacity is above the largest pooled class
// (the store then serves it from a dedicated large-object segment).
// A capacity of exactly maxSlotSize is servable: the class loop is
// inclusive, matching core's pool where 1<<maxClassShift is the largest
// pooled — not the first rejected — request.
func slotSizeFor(capacity int) int {
	if capacity > maxSlotSize {
		return 0
	}
	s := minSlotSize
	for s < capacity {
		s <<= 1
	}
	return s
}

// strideFor returns the per-slot stride (reserved sparse extent) for a
// slot class: slotGrowth× the class size, capped at maxLargeBytes. The
// reservation is virtual — tmpfs commits pages only when written — so
// even the top pooled class can keep real growth headroom, crossing
// from pooled sizes into large-object territory without ever moving.
func strideFor(slotSize int) int {
	stride := slotSize * slotGrowth
	if stride > maxLargeBytes {
		stride = maxLargeBytes
	}
	if stride < slotSize {
		stride = slotSize
	}
	return stride
}

// alignUp rounds n up to the next multiple of align (a power of two).
func alignUp(n, align int) int { return (n + align - 1) &^ (align - 1) }
