package ros

import (
	"errors"
	"io"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// The receive pump: every frame this package takes off a socket — or,
// on an shm link, off the link's frame queue — enters here. The pump
// owns the batched reader (wire.IngressReader: one read wakeup drains
// everything the kernel has buffered) and its release, the live fold of
// resync bytes into the subscription counters, the in-place-or-scratch
// payload choice, CRC verification, and corrupt counting. What a frame
// MEANS is the decoder's business: plain frames handed out in place,
// plain frames read straight into an arena, tagged shm frames, sparse
// field-masked frames.

// frameDecoder consumes one announced frame. It must take exactly n
// payload bytes off rx (through frame, into, or the reader's Discard).
// ok=false means the frame failed an integrity check: the pump counts
// it and nothing was delivered. A non-nil err ends the connection.
// Decoders are built once per connection, so the per-frame call mints
// no closure and boxes nothing.
type frameDecoder interface {
	decode(rx *pump, n int, crc uint32) (ok bool, err error)
}

type pump struct {
	ir      *wire.IngressReader
	sub     *Subscriber // damage counters; nil on service and drain connections
	scratch scratchBuf  // payloads too large to pin in the batch buffer
	folded  uint64      // resync bytes already folded into sub
}

// newPump wraps a connection (or an shm link's frame queue) whose frames
// are bounded by maxLen. A header announcing more is stream damage,
// skipped by magic-rescan.
func newPump(conn io.Reader, maxLen int, sub *Subscriber) *pump {
	return &pump{ir: wire.NewIngressReader(conn, maxLen), sub: sub}
}

// step receives one frame through dec.
func (p *pump) step(dec frameDecoder) error {
	n, crc, err := p.ir.Next()
	if err != nil {
		return err
	}
	p.foldResync()
	ok, err := dec.decode(p, n, crc)
	if !ok && p.sub != nil {
		p.sub.corrupt.Add(1)
		if st := p.sub.stats; st != nil {
			st.Corrupt.Inc()
		}
	}
	return err
}

// run pumps frames through dec until the connection fails or closes,
// then releases the reader.
func (p *pump) run(dec frameDecoder) error {
	defer p.release()
	for {
		if err := p.step(dec); err != nil {
			return err
		}
	}
}

// release folds the still-unfolded resync bytes and returns the batch
// buffer to the ingress pool; the pump must not be used afterwards.
func (p *pump) release() {
	p.foldResync()
	p.ir.Release()
}

// foldResync adds the bytes skipped resynchronizing since the last fold
// to the subscription total. It runs after every header — almost always
// a zero delta and no atomic touched — so introspection sees stream
// damage while the connection is still alive, not only when it dies.
func (p *pump) foldResync() {
	if s := p.ir.SkippedBytes(); s != p.folded && p.sub != nil {
		p.sub.resyncs.Add(s - p.folded)
		p.folded = s
	}
}

// frame returns the n announced payload bytes, verified against crc:
// sliced in place out of the batch buffer when they fit, copied through
// the pump's scratch when they do not. The slice is valid until the next
// call on the pump, so the caller decodes or copies it out first.
func (p *pump) frame(n int, crc uint32) (payload []byte, ok bool, err error) {
	payload, inPlace, err := p.ir.Payload(n)
	if err != nil {
		return nil, true, err
	}
	if !inPlace {
		payload = p.scratch.take(n)
		if err := p.ir.ReadFull(payload); err != nil {
			return nil, true, err
		}
	}
	// The checksum runs before the bytes mean anything: a frame damaged
	// in transit is rejected, never delivered, and the stream stays
	// usable (the next header is re-validated by magic).
	return payload, wire.Checksum(payload) == crc, nil
}

// into reads the next len(dst) payload bytes straight into caller
// storage — an arena, so a megabyte frame never takes a second trip
// through a buffer — and verifies prefix||dst against crc (prefix is
// the tag byte on shm connections, nil elsewhere).
func (p *pump) into(dst, prefix []byte, crc uint32) (ok bool, err error) {
	if err := p.ir.ReadFull(dst); err != nil {
		return true, err
	}
	return wire.Checksum2(prefix, dst) == crc, nil
}

// sfmConn is one publisher link of an SFM subscription: the plain
// decoder, and the arena sink the tagged and sparse decoders end in.
type sfmConn[T any] struct {
	r         *sfmRuntime[T]
	srcLittle bool
}

// adopt makes a verified message image — the first len(image) bytes of
// buf — a live message and dispatches it. wireLen is what the
// instruments record, so masked links show the on-wire saving rather
// than the materialized size.
func (c *sfmConn[T]) adopt(buf core.Buffer, image []byte, wireLen int) error {
	// §4.4.1: the message arrives in the publisher's byte order; the
	// subscriber converts only on mismatch.
	if err := core.ConvertEndianness(image, c.r.layout, c.srcLittle); err != nil {
		buf.Discard()
		return err
	}
	m, ref, err := core.AdoptRef[T](buf, len(image))
	if err != nil {
		buf.Discard()
		return nil
	}
	c.r.sub.dispatch(delivery{to: c.r, msg: m, ref: ref, size: wireLen})
	return nil
}

// receive reads an n-byte message image straight into a fresh arena and
// adopts it with zero transformation (prefix as in pump.into).
func (c *sfmConn[T]) receive(rx *pump, n int, prefix []byte, crc uint32) (bool, error) {
	buf := c.r.mgr.GetBuffer(n)
	image := buf.Bytes()[:n]
	ok, err := rx.into(image, prefix, crc)
	if !ok || err != nil {
		buf.Discard()
		return ok, err
	}
	return true, c.adopt(buf, image, n)
}

// decode is the plain decoder: the frame is the message.
func (c *sfmConn[T]) decode(rx *pump, n int, crc uint32) (bool, error) {
	return c.receive(rx, n, nil, crc)
}

// Frames on an shm link's queue lead with a one-byte tag:
// tagDescriptor frames carry a 24-byte shm descriptor instead of the
// message bytes (the zero-copy path), tagInline frames carry the message
// bytes themselves — the per-message fallback for messages whose arena
// is not in a shared slot. The frame CRC covers tag plus body.
const (
	tagInline     byte = 0x01
	tagDescriptor byte = 0x02
)

// sfmTaggedDecoder pumps an shm connection: descriptors resolved
// through the mapper, inline fallbacks adopted exactly like plain
// frames. Both ends share a boot, so srcLittle is always native.
type sfmTaggedDecoder[T any] struct {
	sfmConn[T]
	mp *shm.Mapper
	// tag and desc are read through an io.Reader, which would move a
	// per-frame local to the heap; the connection's decoder already is.
	tag  [1]byte
	desc [shm.DescriptorSize]byte
}

func (d *sfmTaggedDecoder[T]) decode(rx *pump, n int, crc uint32) (bool, error) {
	if n < 1 {
		return false, nil
	}
	if err := rx.ir.ReadFull(d.tag[:]); err != nil {
		return true, err
	}
	body := n - 1
	switch {
	case d.tag[0] == tagDescriptor && body == shm.DescriptorSize:
		ok, err := rx.into(d.desc[:], d.tag[:], crc)
		if !ok || err != nil {
			return ok, err
		}
		desc, err := shm.ParseDescriptor(d.desc[:])
		if err != nil {
			return false, nil
		}
		mem, held, err := d.mp.Resolve(desc)
		if err != nil {
			// A stale or unmappable descriptor drops this message only;
			// the stream stays healthy.
			if st := d.r.sub.stats; st != nil {
				st.Stale.Inc()
			}
			return true, nil
		}
		buf, err := d.r.mgr.NewExternalBuffer(mem, d.mp, held)
		if err != nil {
			d.mp.ReleaseExternal(held)
			return true, nil
		}
		return true, d.adopt(buf, mem, len(mem))
	case d.tag[0] == tagInline:
		return d.receive(rx, body, d.tag[:], crc)
	}
	// A mis-sized descriptor, or a tag from a future build: skip the
	// frame, keep the stream.
	if err := rx.ir.Discard(body); err != nil {
		return true, err
	}
	return false, nil
}

// fieldsFallbackAfter is how many consecutive undecodable sparse
// payloads a masked link tolerates before it redials without the fields
// offer — the decode-failure analogue of the shm setup fallback.
const fieldsFallbackAfter = 8

// errMaskFallback ends a masked connection whose encoding this side
// cannot track; the redial offers full frames only.
var errMaskFallback = errors.New("ros: sparse decode failing persistently")

// sparseSink expands a parsed sparse payload into fullSize bytes of its
// own storage (zero-filling every untransmitted region, checking the
// per-range CRCs) and delivers the image. ok=false means Materialize
// rejected the payload.
type sparseSink interface {
	deliverSparse(dec *fieldwire.Decoder, payload []byte, fullSize int) (ok bool, err error)
}

// sparseDecoder pumps a mask-negotiated connection: outer frame CRC,
// then table validation, then materialization — a corrupted or
// mis-sliced payload is dropped before anything can be adopted.
type sparseDecoder struct {
	sink      sparseSink
	link      *subConn
	fw        *obs.FieldwireStats // nil when metrics are disabled
	dec       fieldwire.Decoder
	badStreak int
}

func (d *sparseDecoder) decode(rx *pump, n int, crc uint32) (bool, error) {
	payload, ok, err := rx.frame(n, crc)
	if !ok || err != nil {
		return ok, err
	}
	fullSize, perr := d.dec.Parse(payload, maxFrameSize)
	if perr != nil {
		if d.fw != nil {
			d.fw.DecodeErrors.Inc()
		}
		if d.badStreak++; d.badStreak >= fieldsFallbackAfter {
			d.link.decline(capFields)
			if d.fw != nil {
				d.fw.MaskFallbacks.Inc()
			}
			return false, errMaskFallback
		}
		return false, nil
	}
	d.badStreak = 0
	ok, err = d.sink.deliverSparse(&d.dec, payload, fullSize)
	if !ok && d.fw != nil {
		d.fw.DecodeErrors.Inc()
	}
	return ok, err
}

func (c *sfmConn[T]) deliverSparse(dec *fieldwire.Decoder, payload []byte, fullSize int) (bool, error) {
	buf := c.r.mgr.GetBuffer(fullSize)
	image := buf.Bytes()[:fullSize]
	if err := dec.Materialize(payload, image); err != nil {
		buf.Discard()
		return false, nil
	}
	return true, c.adopt(buf, image, len(payload))
}

// rawConn is one publisher link of a raw subscription.
type rawConn struct {
	sub    *Subscriber
	cb     func(RawMessage)
	format string
	little bool
	image  scratchBuf // materialized sparse messages (rostopic echo/bw -fields)
}

// deliver hands wireLen wire bytes' worth of frame to the callback. Raw
// subscriptions are synchronous, so frame may sit in the batch buffer.
func (c *rawConn) deliver(frame []byte, wireLen int) {
	c.sub.dispatch(delivery{to: c, frame: frame, size: wireLen})
}

func (c *rawConn) receive(d delivery) {
	c.cb(RawMessage{Frame: d.frame, Format: c.format, LittleEndian: c.little})
}

func (c *rawConn) decode(rx *pump, n int, crc uint32) (bool, error) {
	frame, ok, err := rx.frame(n, crc)
	if ok && err == nil {
		c.deliver(frame, n)
	}
	return ok, err
}

func (c *rawConn) deliverSparse(dec *fieldwire.Decoder, payload []byte, fullSize int) (bool, error) {
	dst := c.image.take(fullSize)
	if err := dec.Materialize(payload, dst); err != nil {
		return false, nil
	}
	c.deliver(dst, len(payload))
	return true, nil
}
