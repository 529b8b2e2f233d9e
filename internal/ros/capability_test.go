package ros

import (
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/shm"
)

const (
	capsMappedType  = "test_caps/Mapped"
	capsVarTailType = "test_caps/VarTail"
)

var registerCapsMaps sync.Once

// capsEndpoint builds a bare publisher endpoint on a private registry.
func capsEndpoint(sfm bool, typeName string, store *shm.Store) (*pubEndpoint, *obs.Registry) {
	registerCapsMaps.Do(func() {
		fieldwire.Register(capsMappedType, fieldwire.Map{Size: 8, Fields: []fieldwire.Node{
			{ID: 1, Name: "data", Off: 0, Len: 8, Kind: fieldwire.KScalar},
		}})
		// A vector whose elements hold strings cannot be masked.
		fieldwire.Register(capsVarTailType, fieldwire.Map{Size: 8, Fields: []fieldwire.Node{
			{ID: 1, Name: "data", Off: 0, Len: 8, Kind: fieldwire.KVector, ElemSize: 8,
				Elem: []fieldwire.Node{{Kind: fieldwire.KString, Len: 8}}},
		}})
	})
	reg := obs.NewRegistry()
	return &pubEndpoint{
		node:     &Node{name: "caps_pub", metrics: reg, shmStore: store},
		topic:    "caps/topic",
		typeName: typeName,
		md5:      "00000000000000000000000000000000",
		sfm:      sfm,
		att:      &attachments{},
	}, reg
}

// capsStore builds a store that feeds no registry, so an endpoint's
// snapshot shows only what its answers committed.
func capsStore(t *testing.T, lease time.Duration) *shm.Store {
	t.Helper()
	requireShm(t)
	s, err := shm.NewStore(shm.Options{Dir: t.TempDir(), LeaseTimeout: lease})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCapabilityTable drives every offer a subscriber of any build can
// send against every endpoint state that changes the decision, and pins
// the chosen mode, the typed rejects, the reply keys, and the exact
// counter deltas — none before commit, each reject once at commit.
func TestCapabilityTable(t *testing.T) {
	// An shm offer names a frame queue whose read end is already open.
	t.Setenv("ROSSF_SHM_DIR", t.TempDir())
	var queue string
	if shm.Available() {
		q, err := shm.CreateQueue()
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		queue = q.Name()
	}
	shmOffer := func(bootid string) map[string]string {
		return map[string]string{hdrTransports: "shmq,tcp", hdrPID: "4242", hdrBootID: bootid, hdrShmQueue: queue}
	}
	with := func(h map[string]string, k, v string) map[string]string {
		h[k] = v
		return h
	}
	offers := []struct {
		name string
		req  func() map[string]string
	}{
		{"none (old build)", func() map[string]string { return map[string]string{} }},
		{"shm", func() map[string]string { return shmOffer(shm.BootID()) }},
		{"fields", func() map[string]string { return map[string]string{hdrFields: "data"} }},
		{"shm+fields", func() map[string]string { return with(shmOffer(shm.BootID()), hdrFields, "data") }},
		{"unknown transport", func() map[string]string {
			return with(shmOffer(shm.BootID()), hdrTransports, "quic,tcp")
		}},
		{"foreign bootid", func() map[string]string { return shmOffer("another-host") }},
		{"shm of a descriptor-over-TCP build", func() map[string]string {
			return with(shmOffer(shm.BootID()), hdrTransports, "shm,tcp")
		}},
		{"shm, queue gone", func() map[string]string {
			return with(shmOffer(shm.BootID()), hdrShmQueue, queue+"-gone")
		}},
	}

	// Each want is "mode" or "mode!cap:reason[!cap:reason]", one per offer
	// in the order above.
	states := []struct {
		name  string
		build func(t *testing.T) (*pubEndpoint, *obs.Registry)
		want  [8]string
	}{
		{"ros1 topic", func(t *testing.T) (*pubEndpoint, *obs.Registry) {
			return capsEndpoint(false, capsMappedType, capsStore(t, 0))
		}, [8]string{"plain", "plain", "plain", "plain", "plain", "plain", "plain", "plain"}},
		{"sfm without store", func(t *testing.T) (*pubEndpoint, *obs.Registry) {
			return capsEndpoint(true, capsMappedType, nil)
		}, [8]string{"plain", "plain", "masked", "masked", "plain", "plain", "plain", "plain"}},
		{"sfm with store", func(t *testing.T) (*pubEndpoint, *obs.Registry) {
			return capsEndpoint(true, capsMappedType, capsStore(t, 0))
		}, [8]string{"plain", "shm", "masked", "shm", "plain", "plain!shm:remote_peer",
			"plain!shm:old_build", "plain!shm:no_queue"}},
		{"peer table full", func(t *testing.T) (*pubEndpoint, *obs.Registry) {
			store := capsStore(t, 0)
			for i := 0; i < shm.MaxPeers; i++ {
				if _, _, err := store.AcquirePeer(1); err != nil {
					t.Fatal(err)
				}
			}
			return capsEndpoint(true, capsMappedType, store)
		}, [8]string{"plain", "plain!shm:peer_table_full", "masked", "masked!shm:peer_table_full",
			"plain", "plain!shm:remote_peer", "plain!shm:old_build", "plain!shm:no_queue"}},
		{"no wire map", func(t *testing.T) (*pubEndpoint, *obs.Registry) {
			return capsEndpoint(true, "test_caps/Unmapped", nil)
		}, [8]string{"plain", "plain", "plain!fields:no_wire_map", "plain!fields:no_wire_map", "plain", "plain", "plain", "plain"}},
		{"variable tail", func(t *testing.T) (*pubEndpoint, *obs.Registry) {
			return capsEndpoint(true, capsVarTailType, nil)
		}, [8]string{"plain", "plain", "plain!fields:variable_tail", "plain!fields:variable_tail", "plain", "plain", "plain", "plain"}},
	}

	modeNames := map[linkMode]string{modePlain: "plain", modeShm: "shm", modeMasked: "masked"}
	capNames := map[capability]string{capShm: "shm", capFields: "fields"}
	for _, st := range states {
		for i, of := range offers {
			t.Run(st.name+"/"+of.name, func(t *testing.T) {
				ep, reg := st.build(t)
				a := ep.answer(of.req())
				defer a.abort()

				got := modeNames[a.mode]
				for _, r := range a.rejects {
					got += "!" + capNames[r.cap] + ":" + r.reason
				}
				if got != st.want[i] {
					t.Fatalf("answer = %q, want %q", got, st.want[i])
				}
				if (a.shm != nil) != (a.mode == modeShm) || (a.mask != nil) != (a.mode == modeMasked) {
					t.Fatalf("mode %s with shm grant %v, mask %v", got, a.shm != nil, a.mask != nil)
				}

				reply := map[string]string{}
				a.appendTo(reply)
				wantReply := map[string]string{hdrTransport: "tcp"}
				switch a.mode {
				case modeShm:
					wantReply = map[string]string{
						hdrTransport:  "shmq",
						hdrShmPrefix:  a.shm.store.Prefix(),
						hdrShmPeer:    "0",
						hdrShmLeaseMS: strconv.FormatInt(shm.DefaultLeaseTimeout.Milliseconds(), 10),
						hdrShmGen:     "1",
					}
				case modeMasked:
					wantReply[hdrFieldwire] = "v1"
				}
				if _, reason, ok := strings.Cut(st.want[i], "!fields:"); ok {
					wantReply[hdrFieldwireReject] = reason
				}
				if len(reply) != len(wantReply) {
					t.Errorf("reply = %v, want %v", reply, wantReply)
				}
				for k, v := range wantReply {
					if reply[k] != v {
						t.Errorf("reply[%s] = %q, want %q", k, reply[k], v)
					}
				}

				if snap := reg.Snapshot(); snap.Shm != (obs.ShmSnapshot{}) || snap.Fieldwire != (obs.FieldwireSnapshot{}) {
					t.Fatalf("counted before commit: shm %+v fieldwire %+v", snap.Shm, snap.Fieldwire)
				}
				a.commit(ep)
				var wantShm obs.ShmSnapshot
				var wantFW obs.FieldwireSnapshot
				if a.mode == modeMasked {
					wantFW.MaskedSubscriptions = 1
				}
				for _, r := range strings.Split(st.want[i], "!")[1:] {
					switch r {
					case "shm:remote_peer":
						wantShm.Fallbacks, wantShm.FallbackReasons.RemotePeer = 1, 1
					case "shm:peer_table_full":
						wantShm.Fallbacks, wantShm.FallbackReasons.PeerTableFull = 1, 1
					case "shm:old_build":
						wantShm.Fallbacks, wantShm.FallbackReasons.OldBuild = 1, 1
					case "shm:no_queue":
						wantShm.Fallbacks, wantShm.FallbackReasons.NoQueue = 1, 1
					case "fields:no_wire_map":
						wantFW.MaskRejects, wantFW.RejectReasons.NoMap = 1, 1
					case "fields:variable_tail":
						wantFW.MaskRejects, wantFW.RejectReasons.VarTail = 1, 1
					}
				}
				if snap := reg.Snapshot(); snap.Shm != wantShm || snap.Fieldwire != wantFW {
					t.Errorf("after commit: shm %+v fieldwire %+v, want %+v %+v",
						snap.Shm, snap.Fieldwire, wantShm, wantFW)
				}
			})
		}
	}
}

// TestOfferDerivesFromDecoders pins the subscriber half: an offer names
// a capability only when the runtime has a decoder for it, the
// subscription's options allow it, and the link has not declined it.
func TestOfferDerivesFromDecoders(t *testing.T) {
	requireShm(t)
	t.Setenv("ROSSF_SHM_DIR", t.TempDir())
	typed := (&sfmRuntime[queueMsg]{}).decoders()
	rawSFM := rawDecoders(&Subscriber{sfm: true}, nil)
	ros1 := rawDecoders(&Subscriber{}, nil)
	fields := []string{"a", "b"}
	cases := []struct {
		name     string
		sub      *Subscriber
		declined capability
		want     capability
	}{
		{"typed sfm", &Subscriber{decoders: typed}, 0, capShm},
		{"typed sfm with fields", &Subscriber{decoders: typed, fields: fields}, 0, capShm | capFields},
		{"typed sfm forced tcp", &Subscriber{decoders: typed, fields: fields, transport: TransportTCP}, 0, capFields},
		{"typed sfm, shm declined", &Subscriber{decoders: typed, fields: fields}, capShm, capFields},
		{"typed sfm, fields declined", &Subscriber{decoders: typed, fields: fields}, capFields, capShm},
		{"raw sfm never offers shm", &Subscriber{decoders: rawSFM}, 0, 0},
		{"raw sfm with fields", &Subscriber{decoders: rawSFM, fields: fields}, 0, capFields},
		{"plain runtime", &Subscriber{decoders: ros1, fields: fields}, 0, 0},
	}
	for _, c := range cases {
		c.sub.node = &Node{}
		sc := newSubConn()
		sc.decline(c.declined)
		o := c.sub.offer(sc)
		if o.caps != c.want {
			t.Errorf("%s: offer caps = %b, want %b", c.name, o.caps, c.want)
		}
		// The queue comes with the shm offer and with nothing else.
		if (o.queue != nil) != (o.caps&capShm != 0) {
			t.Errorf("%s: caps %b with queue %v", c.name, o.caps, o.queue != nil)
		}
		o.settle(false)
	}
	custom := &Subscriber{decoders: typed, node: &Node{customDial: true}}
	if got := custom.offer(newSubConn()).caps; got != 0 {
		t.Errorf("custom dialer: offer caps = %b, want none", got)
	}
	if left, _ := filepath.Glob(filepath.Join(shm.Dir(), "*")); len(left) != 0 {
		t.Errorf("settled offers left %v behind", left)
	}
}

// TestHandshakeHangUpCommitsNothing: a subscriber that hangs up while
// the reply is being written (or an endpoint that closed meanwhile) was
// never admitted, so the masked-subscription counter stays put and the
// peer lease reserved for it is retired — a leaked lease would stay
// active for as long as this process lives, a retired one is reaped
// once its heartbeat goes stale.
func TestHandshakeHangUpCommitsNothing(t *testing.T) {
	hangUp := func() net.Conn {
		client, server := net.Pipe()
		go func() {
			io.ReadFull(client, make([]byte, 3)) // take a few reply bytes, then vanish
			client.Close()
		}()
		return server
	}
	base := func(ep *pubEndpoint) map[string]string {
		return map[string]string{hdrType: ep.typeName, hdrMD5: ep.md5, hdrFormat: formatSFM}
	}

	t.Run("mask", func(t *testing.T) {
		ep, reg := capsEndpoint(true, capsMappedType, nil)
		req := base(ep)
		req[hdrFields] = "data"
		if err := ep.acceptConn(hangUp(), req); err == nil {
			t.Fatal("acceptConn succeeded against a vanished subscriber")
		}
		if n := reg.Snapshot().Fieldwire.MaskedSubscriptions; n != 0 {
			t.Errorf("masked_subscriptions = %d for a connection never admitted", n)
		}
	})

	for _, closed := range []bool{false, true} {
		name := "shm lease, subscriber hung up"
		if closed {
			name = "shm lease, endpoint closed"
		}
		t.Run(name, func(t *testing.T) {
			store := capsStore(t, 40*time.Millisecond)
			ep, _ := capsEndpoint(true, capsMappedType, store)
			ep.closed = closed
			req := base(ep)
			t.Setenv("ROSSF_SHM_DIR", t.TempDir())
			q, err := shm.CreateQueue()
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			req[hdrTransports], req[hdrPID], req[hdrBootID], req[hdrShmQueue] = "shmq,tcp", "4242", shm.BootID(), q.Name()
			conn := hangUp()
			if closed {
				client, server := net.Pipe()
				go io.Copy(io.Discard, client) //nolint:errcheck // drain the reply
				defer client.Close()
				conn = server
			}
			if err := ep.acceptConn(conn, req); err == nil {
				t.Fatal("acceptConn admitted the connection")
			}
			// The write end opened for the grant went with it: the queue
			// reads end-of-stream instead of waiting for a writer.
			q.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := q.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("queue read after the aborted grant: %v, want EOF", err)
			}
			// Slot 0 went to the failed handshake. Retired, the reaper frees
			// it and a later lease gets it back in its second generation.
			deadline := time.Now().Add(5 * time.Second)
			for {
				peer, gen, err := store.AcquirePeer(1)
				if err != nil {
					t.Fatal(err)
				}
				if peer == 0 {
					if gen != 2 {
						t.Fatalf("slot 0 generation = %d, want 2", gen)
					}
					return
				}
				store.RetirePeer(peer)
				if time.Now().After(deadline) {
					t.Fatal("the failed handshake's peer lease was never released")
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
