package ros

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Capability exchange: the one place that decides what a connection can
// do beyond plain framing. A subscriber builds an offer from what its
// runtime can pump; the publisher turns it into an answer — a mode, the
// resources that mode needs, and a typed reject for every capability it
// declined. Everything is pure header extension: a peer that does not
// know a key ignores it, so any pairing of builds converges on plain
// framing. DESIGN §3.15 tabulates the keys below, their direction, the
// reject reasons and what each falls back to.
const (
	hdrTransports      = "transports"
	hdrPID             = "pid"
	hdrBootID          = "bootid"
	hdrTransport       = "transport"
	hdrShmPrefix       = "shmprefix"
	hdrShmPeer         = "shmpeer"
	hdrShmLeaseMS      = "shmlease"
	hdrShmGen          = "shmgen"
	hdrShmQueue        = "shmqueue"
	hdrFields          = "fields"
	hdrFieldwire       = "fieldwire"
	hdrFieldwireReject = "fieldsreject"

	// fieldwireV1 names the sparse encoding of internal/fieldwire.
	fieldwireV1 = "v1"

	// legacyShmTransport is the transport name of builds that passed shm
	// descriptors over the TCP connection; this build neither offers nor
	// grants it, and counts meeting one as an old_build reject.
	legacyShmTransport = "shm"
)

// capability is a set of optional things a connection can do. Shared
// memory outranks field masking: a link that moves descriptors has no
// payload bytes left to save.
type capability uint8

const (
	capShm    capability = 1 << iota // descriptors into shared memory, tagged framing
	capFields                        // sparse field-masked payloads
)

// linkMode is the outcome of one exchange; it fixes the link's framing.
type linkMode uint8

const (
	modePlain linkMode = iota
	modeShm
	modeMasked
)

// Shm reject reasons; field-mask rejects use the fieldwire.Reason*
// strings, which also travel in the answer.
const (
	reasonRemotePeer    = "remote_peer"     // offered shm from another host or boot
	reasonPeerTableFull = "peer_table_full" // no free peer lease slot
	reasonOldBuild      = "old_build"       // another shm revision: offered by name, or granted but not standing up on this side
	reasonNoQueue       = "no_queue"        // the link's frame queue could not be created or opened
)

// reject is one declined capability and why; detail carries the
// underlying error for the warn-once log.
type reject struct {
	cap    capability
	reason string
	detail error
}

// noteReject counts one reject, in aggregate and by reason.
func (n *Node) noteReject(r reject) {
	if st := n.shmStats(); st != nil && r.cap == capShm {
		st.Fallbacks.Inc()
		switch r.reason {
		case reasonRemotePeer:
			st.FallbackRemotePeer.Inc()
		case reasonPeerTableFull:
			st.FallbackPeerTableFull.Inc()
		case reasonOldBuild:
			st.FallbackOldBuild.Inc()
		case reasonNoQueue:
			st.FallbackNoQueue.Inc()
		}
	}
	if fw := n.metrics.Fieldwire(); fw != nil && r.cap == capFields {
		fw.MaskRejects.Inc()
		switch r.reason {
		case fieldwire.ReasonNoMap:
			fw.RejectNoMap.Inc()
		case fieldwire.ReasonVarTail:
			fw.RejectVarTail.Inc()
		default:
			fw.RejectUnmappable.Inc()
		}
	}
}

// offer is what one dial puts on the table. queue is the read end of
// the frame queue an shm link would ride, non-nil iff caps has capShm.
type offer struct {
	caps   capability
	fields []string
	queue  *os.File
}

// offer derives this dial's offer from the runtime's decoder set, so a
// subscription can never advertise a mode it has no decoder for, minus
// whatever this link declined after an earlier failure. Shm also needs
// a transport mode that allows it, platform support, and the stock
// dialer: a custom dialer (netsim links, tunnels) means the connection's
// address says nothing about machine locality. An shm offer comes with
// the frame queue already created and its read end open, so the
// publisher's open of the write end can neither block nor miss; a queue
// that cannot be made is a typed reject, and the link stops offering.
func (s *Subscriber) offer(sc *subConn) offer {
	o := offer{caps: s.decoders.caps() &^ sc.declinedCaps(), fields: s.fields}
	if (s.transport != TransportAuto && s.transport != TransportShm) ||
		!shm.Available() || s.node.customDial {
		o.caps &^= capShm
	}
	if len(s.fields) == 0 {
		o.caps &^= capFields
	}
	if o.caps&capShm != 0 {
		var err error
		if o.queue, err = shm.CreateQueue(); err != nil {
			o.caps &^= capShm
			sc.decline(capShm)
			s.node.noteReject(reject{cap: capShm, reason: reasonNoQueue, detail: err})
		}
	}
	return o
}

// settle ends the offer's claim on the queue's name once the publisher
// has answered (it holds the write end by then) or never will: the name
// goes at once, the read end too unless the answer put it to use.
func (o offer) settle(keep bool) {
	if o.queue != nil {
		os.Remove(o.queue.Name())
		if !keep {
			o.queue.Close()
		}
	}
}

// subscribeHeader is the subscriber's request header for one dial:
// the topic binding plus whatever o offers.
func subscribeHeader(topic, typeName, md5, callerID string, sfm bool, o offer) map[string]string {
	h := map[string]string{
		hdrTopic:    topic,
		hdrType:     typeName,
		hdrMD5:      md5,
		hdrCallerID: callerID,
		hdrFormat:   formatName(sfm),
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	}
	if o.caps&capShm != 0 {
		h[hdrTransports] = wire.TransportNameShm + "," + wire.TransportNameTCP
		h[hdrPID] = strconv.Itoa(os.Getpid())
		h[hdrBootID] = shm.BootID()
		h[hdrShmQueue] = o.queue.Name()
	}
	if o.caps&capFields != 0 {
		h[hdrFields] = strings.Join(o.fields, ",")
	}
	return h
}

// replyMode reads the mode the publisher chose. A reply with neither
// key (an old build) is plain.
func replyMode(reply map[string]string) linkMode {
	switch {
	case reply[hdrTransport] == wire.TransportNameShm:
		return modeShm
	case reply[hdrFieldwire] == fieldwireV1:
		return modeMasked
	}
	return modePlain
}

// openShm stands up the subscriber side of an shm answer: the peer
// lease parsed out of the reply, then a mapper over the publisher's
// segments with the heartbeat that keeps the lease alive. Any failure
// is a negotiation failure — the caller falls back to a TCP redial.
func (s *Subscriber) openShm(o offer, reply map[string]string) (*shm.Mapper, error) {
	if o.queue == nil {
		return nil, fmt.Errorf("%w: publisher selected shm, which was never offered", ErrHandshake)
	}
	peer, err := strconv.Atoi(reply[hdrShmPeer])
	if err != nil {
		return nil, fmt.Errorf("%w: bad shm peer %q", ErrHandshake, reply[hdrShmPeer])
	}
	prefix := reply[hdrShmPrefix]
	if prefix == "" {
		return nil, fmt.Errorf("%w: missing shm prefix", ErrHandshake)
	}
	lease := shm.DefaultLeaseTimeout
	if ms, err := strconv.ParseInt(reply[hdrShmLeaseMS], 10, 64); err == nil && ms > 0 {
		lease = time.Duration(ms) * time.Millisecond
	}
	// A missing generation (publisher predating lease generations) is 0,
	// which disables the mapper's lease validation.
	gen, err := strconv.ParseUint(reply[hdrShmGen], 10, 32)
	if err != nil {
		gen = 0
	}
	m, err := shm.NewMapper(prefix, peer, uint32(gen), s.node.shmStats())
	if err != nil {
		return nil, err
	}
	// Heartbeat at a fifth of the lease: several beats fit inside one
	// timeout, so a single missed tick never loses the lease.
	interval := lease / 5
	if interval <= 0 {
		interval = time.Millisecond
	}
	if err := m.StartHeartbeat(interval); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// answer is the publisher's decision about one offer. Nothing in it has
// touched a counter yet: admit commits it once the connection is sure
// to be attached, and acceptConn aborts it on every exit before that.
type answer struct {
	mode    linkMode
	shm     *shmSender      // the peer lease; non-nil iff mode == modeShm
	mask    *fieldwire.Mask // non-nil iff mode == modeMasked
	rejects []reject
}

// answer decides what this endpoint grants. Shm needs an SFM topic, a
// store, a subscriber on the same boot (same machine), the write end of
// the queue it offered and a free peer lease; a mask needs an SFM topic,
// a wire map that resolves every path, and a link that did not get shm.
// Everything else — an empty offer (old build), an unknown transport
// name, a declined capability — is plain.
func (ep *pubEndpoint) answer(req map[string]string) answer {
	var a answer
	store := ep.node.shmStore
	shmOK := ep.sfm && store != nil
	switch {
	case wire.NegotiateTransport(req[hdrTransports], shmOK) != wire.TransportNameShm:
		// The subscriber is a build whose shm passes descriptors over the
		// connection itself; this one could have served its own kind.
		if shmOK && wire.OffersTransport(req[hdrTransports], legacyShmTransport) {
			a.rejects = append(a.rejects, reject{cap: capShm, reason: reasonOldBuild})
		}
	case req[hdrBootID] != shm.BootID():
		a.rejects = append(a.rejects, reject{cap: capShm, reason: reasonRemotePeer})
	default:
		queue, err := shm.OpenQueue(req[hdrShmQueue])
		if err != nil {
			a.rejects = append(a.rejects, reject{cap: capShm, reason: reasonNoQueue, detail: err})
			break
		}
		pid, _ := strconv.ParseUint(req[hdrPID], 10, 32)
		peer, gen, err := store.AcquirePeer(uint32(pid))
		if err != nil {
			queue.Close()
			a.rejects = append(a.rejects, reject{cap: capShm, reason: reasonPeerTableFull, detail: err})
			break
		}
		a.mode, a.shm = modeShm, &shmSender{store: store, peer: peer, gen: gen, queue: queue}
	}
	if list := req[hdrFields]; list != "" && ep.sfm && a.mode == modePlain {
		m, _ := fieldwire.MapFor(ep.typeName) // a nil map resolves to ErrNoMap
		mask, err := m.Resolve(strings.Split(list, ","))
		if err != nil {
			a.rejects = append(a.rejects, reject{cap: capFields, reason: fieldwire.RejectReason(err), detail: err})
		} else {
			a.mode, a.mask = modeMasked, mask
		}
	}
	return a
}

func (a *answer) appendTo(reply map[string]string) {
	reply[hdrTransport] = wire.TransportNameTCP
	switch a.mode {
	case modeShm:
		store := a.shm.store
		reply[hdrTransport] = wire.TransportNameShm
		reply[hdrShmPrefix] = store.Prefix()
		reply[hdrShmPeer] = strconv.Itoa(a.shm.peer)
		reply[hdrShmLeaseMS] = strconv.FormatInt(store.LeaseTimeout().Milliseconds(), 10)
		reply[hdrShmGen] = strconv.FormatUint(uint64(a.shm.gen), 10)
	case modeMasked:
		reply[hdrFieldwire] = fieldwireV1
	}
	for _, r := range a.rejects {
		if r.cap == capFields {
			reply[hdrFieldwireReject] = r.reason
		}
	}
}

// commit records the decision once the connection is admitted: each
// reject counted once, a served mask counted once, and a rejected mask
// warned about once per endpoint — a fleet that expects masked bandwidth
// but falls back to full frames should not degrade silently.
func (a *answer) commit(ep *pubEndpoint) {
	for _, r := range a.rejects {
		ep.node.noteReject(r)
		if r.cap == capFields && !ep.maskRejectWarned.Swap(true) {
			log.Printf("ros: topic %q rejected a subscriber field mask (%s: %v); the connection falls back to full frames — see fieldwire.rejects_by_reason in /metrics or `rostopic stats`",
				ep.topic, r.reason, r.detail)
		}
	}
	if a.mask != nil {
		if fw := ep.node.metrics.Fieldwire(); fw != nil {
			fw.MaskedSubscriptions.Inc()
		}
	}
}

// abort releases what the decision reserved for a connection that was
// never admitted.
func (a *answer) abort() {
	if a.shm != nil {
		a.shm.close()
	}
}
