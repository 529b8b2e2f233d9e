package ros

import (
	"os"

	"rossf/internal/obs"
	"rossf/internal/shm"
)

// Shared-memory transport: the publisher's per-connection grant and the
// descriptor queue items it mints. Which connections get it, and the
// subscriber-side mapper, are decided in capability.go; how its tagged
// frames are consumed, in pump.go.

// shmSender is a pubConn's grant to publish into shared memory: the
// node's store, the peer lease (id and generation) the subscriber
// holds, and the write end of the link's frame queue — every frame of
// an shm link, descriptor or inline fallback, travels through it and
// none over the TCP connection, which stays behind as the handshake and
// liveness channel.
type shmSender struct {
	store *shm.Store
	peer  int
	gen   uint32
	queue *os.File
}

// close ends the grant: the subscriber reads end-of-stream off the
// queue, and its lease drains — references it still holds are released
// by its own process as callbacks finish, or reclaimed by the reaper
// once its heartbeat goes stale.
func (sh *shmSender) close() {
	sh.queue.Close()
	sh.store.RetirePeer(sh.peer)
}

// shmStats returns the node's shared-memory instruments, or nil when
// metrics are disabled. Callers must nil-check: the struct pointer
// itself (unlike the Counter/Gauge methods) is not nil-safe.
func (n *Node) shmStats() *obs.ShmStats { return n.metrics.Shm() }

// shmOutcome classifies a failed attempt to ship a message as a
// descriptor, so the write loop can count (and warn about) the right
// fallback reason instead of folding every miss into one number.
type shmOutcome int

const (
	// shmNoSlot: the arena is not in this connection's store and
	// promotion could not place a copy either (message above the
	// transport cap, or the store declined).
	shmNoSlot shmOutcome = iota
	// shmLeaseLost: the slot was ready but the subscriber's lease raced
	// away under Share — a transient, not a classified reason.
	shmLeaseLost
)

// ready is the write loop's last step before the batch: on an shm link
// an arena item becomes a descriptor. The peer's reference is minted
// here, after the queue, so an item dropped unsent owns only its arena.
// A heap-backed message is PROMOTED — copied once into a shared slot
// cached on its record — so a republisher converges to zero fallbacks.
// Share needs the message held, so the item's reference goes only once
// the descriptor exists. When either step fails the item goes inline
// unchanged and the fallback is counted by reason (and eventually
// warned about): silent degradation is a bug signal.
func (pc *pubConn) ready(it frameItem) frameItem {
	if pc.shm == nil || it.ref.IsZero() {
		return it
	}
	used := len(it.data)
	h, _, promoted, ok := it.ref.PromoteShared(pc.shm.store)
	if !ok {
		pc.ep.noteShmFallback(used, shmNoSlot)
		return it
	}
	if promoted {
		if st := pc.ep.node.shmStats(); st != nil {
			st.Promotions.Inc()
		}
	}
	d, err := pc.shm.store.Share(h, pc.shm.peer, pc.shm.gen, used)
	if err != nil {
		pc.ep.noteShmFallback(used, shmLeaseLost)
		return it
	}
	it.release()
	// The descriptor travels by value and is encoded (and hashed, 25
	// bytes) straight into the write loop's scratch: per connection there
	// is nothing to share across the fan-out, and nothing to allocate.
	return frameItem{desc: d, tag: tagDescriptor}
}
