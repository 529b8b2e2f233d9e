package ros

import (
	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Shared-memory transport: the publisher's per-connection grant and the
// descriptor queue items it mints. Which connections get it, and the
// subscriber-side mapper, are decided in capability.go; how its tagged
// frames are consumed, in pump.go.

// shmSender is a pubConn's grant to publish into shared memory: the
// node's store plus the peer lease (id and generation) the subscriber
// holds.
type shmSender struct {
	store *shm.Store
	peer  int
	gen   uint32
}

// shmStats returns the node's shared-memory instruments, or nil when
// metrics are disabled. Callers must nil-check: the struct pointer
// itself (unlike the Counter/Gauge methods) is not nil-safe.
func (n *Node) shmStats() *obs.ShmStats { return n.metrics.Shm() }

// shmOutcome classifies one attempt to ship a message as a descriptor,
// so the publish path can count (and warn about) the right fallback
// reason instead of folding every miss into one number.
type shmOutcome int

const (
	// shmShared: the descriptor item was built; publish it.
	shmShared shmOutcome = iota
	// shmNoSlot: the arena is not in this connection's store and
	// publish-time promotion could not place a copy either (message
	// above the transport cap, or the store declined).
	shmNoSlot
	// shmLeaseLost: the slot was ready but the subscriber's lease raced
	// away under Share — a transient, not a classified reason.
	shmLeaseLost
)

// shmItemFor builds a descriptor queue item for message m on c's shm
// grant. A message whose arena already lives in this connection's store
// ships as-is; a heap-backed one is PROMOTED — copied once into a
// shared slot cached on the message record — so a republisher converges
// to zero fallbacks instead of shipping an inline copy forever.
// promoted reports that this call paid the copy (the caller's
// Promotions counter); outcomes other than shmShared mean the message
// must go inline.
func shmItemFor[T any](c *pubConn, m *T) (it frameItem, promoted bool, outcome shmOutcome) {
	h, used, promoted, ok := core.PromoteShared(m, c.shm.store)
	if !ok {
		return frameItem{}, false, shmNoSlot
	}
	d, err := c.shm.store.Share(h, c.shm.peer, c.shm.gen, used)
	if err != nil {
		return frameItem{}, promoted, shmLeaseLost
	}
	store, peer, gen := c.shm.store, c.shm.peer, c.shm.gen
	it = frameItem{
		data: d.AppendTo(nil),
		tag:  tagDescriptor,
		undo: func() { store.Unshare(h, peer, gen) },
	}
	// Descriptors are per-connection (24 bytes), so there is nothing to
	// share across the fan-out — stamping here just moves the trivial
	// hash off the write loop.
	t := [1]byte{tagDescriptor}
	it.crc, it.crcOK = wire.Checksum2(t[:], it.data), true
	return it, promoted, shmShared
}
