package ros

import (
	"os"

	"rossf/internal/core"
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
// descriptor, so the publish path can count (and warn about) the right
// fallback reason instead of folding every miss into one number.
type shmOutcome int

const (
	// shmNoSlot: the arena is not in this connection's store and
	// publish-time promotion could not place a copy either (message
	// above the transport cap, or the store declined).
	shmNoSlot shmOutcome = iota
	// shmLeaseLost: the slot was ready but the subscriber's lease raced
	// away under Share — a transient, not a classified reason.
	shmLeaseLost
)

// shmItemFor builds a descriptor queue item on c's shm grant for the
// used-byte message hold refers to. A message whose arena already lives
// in this connection's store ships as-is; a heap-backed one is PROMOTED
// — copied once into a shared slot cached on the message record — so a
// republisher converges to zero fallbacks instead of shipping an inline
// copy forever. ok=false means the message must go inline on this
// connection; the fallback is counted by reason (and eventually warned
// about) — silent degradation off the descriptor path is a bug signal.
func (ep *pubEndpoint) shmItemFor(c *pubConn, hold core.Ref, used int) (it frameItem, ok bool) {
	h, _, promoted, ok := hold.PromoteShared(c.shm.store)
	if !ok {
		ep.noteShmFallback(used, shmNoSlot)
		return frameItem{}, false
	}
	if promoted {
		if st := ep.node.shmStats(); st != nil {
			st.Promotions.Inc()
		}
	}
	d, err := c.shm.store.Share(h, c.shm.peer, c.shm.gen, used)
	if err != nil {
		ep.noteShmFallback(used, shmLeaseLost)
		return frameItem{}, false
	}
	// The descriptor travels by value and is encoded (and hashed, 25
	// bytes) straight into the write loop's scratch: per connection there
	// is nothing to share across the fan-out, and nothing to allocate.
	return frameItem{desc: d, tag: tagDescriptor}, true
}
