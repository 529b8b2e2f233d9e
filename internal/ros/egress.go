package ros

import (
	"io"
	"net"
	"sync"
	"time"

	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// The send side: one frame batch for every link (DESIGN §3.15).
//
// A pubConn's write loop fills an egressBatch from its queue and writes
// it to the link's sink — the TCP connection, or an shm link's frame
// queue; an egress shard (shard.go) fills one, encodes it once and
// writes it to every member. After blocking on one queued item a loop
// drains whatever is ALREADY queued — never waiting for more — into one
// vectored write under one deadline, so an item that arrives alone goes
// out alone, immediately, while a backlog collapses into one syscall.
//
// A link's framing is fixed by the mode it was admitted with: plain,
// tagged (shm: a descriptor or an inline copy behind a one-byte tag) or
// sparse (a field mask: a range table and the ranges it selects). A
// frame's payload is prefix‖body — nothing, the tag, or the table — and
// one encode loop owns the frame cap, the checksum, the header and the
// coalesce-or-vector choice: a body at or below coalesceThreshold is
// copied behind its header into a pooled scratch buffer, where
// consecutive small frames merge into one write vector (at that size a
// copy is cheaper than another iovec); a larger body travels zero-copy,
// straight from the arena. Batch storage is sized once and reused, so a
// steady-state batch allocates nothing.
const (
	// maxBatchFrames bounds how many queued frames one vectored write may
	// carry. 32 covers a fully backlogged default queue (16) twice over
	// while keeping the iovec table well under IOV_MAX.
	maxBatchFrames = 32

	// maxBatchBytes stops draining once a batch holds this much payload;
	// the frame that crosses the line still ships (a batch always accepts
	// its first item, and the budget is checked before pulling the next).
	maxBatchBytes = 256 << 10

	// coalesceThreshold is the body size at or below which a frame's
	// bytes are copied into the batch scratch instead of travelling as
	// their own iovec.
	coalesceThreshold = 4 << 10

	// egressScratchCap sizes the pooled coalesce buffer for a link's
	// batch: maxBatchFrames maximal coalesced frames (header + tag +
	// body). A batch with deeper caps or longer prefixes makes its own.
	egressScratchCap = maxBatchFrames * (coalesceThreshold + wire.FrameHeaderSize + 1)
)

// egressScratchPool holds coalesce buffers; one is borrowed per active
// write loop that has seen at least one small frame.
var egressScratchPool = sync.Pool{
	New: func() any {
		buf := make([]byte, 0, egressScratchCap)
		return &buf
	},
}

// pubCRC memoizes the checksum variants of one publish so an
// N-subscriber fan-out hashes the message bytes once, not N times. Two
// variants exist because tagged (shm-negotiated) connections frame the
// payload as tagInline||bytes and CRC-32C offers no cheap way to derive
// CRC(tag||p) from CRC(p): a publish fanning out to both connection
// kinds hashes the payload at most twice, and exactly once when the
// fan-out is uniform. The zero value is ready to use.
type pubCRC struct {
	plainCRC  uint32
	plainOK   bool
	inlineCRC uint32
	inlineOK  bool
}

// plain returns CRC(p), computing it on first call only.
func (c *pubCRC) plain(p []byte) uint32 {
	if !c.plainOK {
		c.plainCRC = wire.Checksum(p)
		c.plainOK = true
	}
	return c.plainCRC
}

// inline returns CRC(tagInline||p), computing it on first call only.
func (c *pubCRC) inline(p []byte) uint32 {
	if !c.inlineOK {
		tag := [1]byte{tagInline}
		c.inlineCRC = wire.Checksum2(tag[:], p)
		c.inlineOK = true
	}
	return c.inlineCRC
}

// frameSink is where a connection's frames go: the TCP connection, or
// the frame queue of an shm link.
type frameSink interface {
	io.Writer
	SetWriteDeadline(time.Time) error
}

// egressTally counts what a write ships. The encoder saves its running
// tally at the start of every frame (the frame's span) and at the batch's
// end, so a write of any suffix knows its counts and where its bytes begin.
type egressTally struct {
	frames, coalesced, bytes int
}

// egressBatch is one write loop's reusable batch: the queued items, the
// write vectors they encode to, and the storage behind both.
type egressBatch struct {
	mode         linkMode        // fixes the framing: plain, tagged (modeShm) or sparse (modeMasked)
	mask         *fieldwire.Mask // modeMasked only
	sink         frameSink       // nil on a shard's batch, which is written to each member
	writeTimeout time.Duration
	maxBytes     int
	maxFrame     int // frame cap: the largest payload the link's receiver accepts

	ep    *pubEndpoint          // counts refused frames
	stats *obs.EgressStats      // nil when metrics are disabled
	shard *obs.EgressShardStats // a shard's batch only
	fw    *obs.FieldwireStats   // a sparse link's batch only; nil when metrics are disabled

	items []frameItem   // len is the batch's frame cap
	spans []egressTally // one per item, plus the batch's end
	n     int
	bytes int // payload bytes queued (batch budget)

	// vecs is the encoded batch. A write copies what it sends into
	// outStore, as WriteTo consumes its receiver; out, that copy, lives on
	// the (heap-resident) batch so the vector header does not escape.
	vecs     [][]byte
	outStore [][]byte
	out      net.Buffers
	// hdrs holds the header and prefix of every vectored frame, sized so
	// appends never reallocate under vectors already issued; the scratch
	// (borrowed on first use, returned by close) holds coalesced frames,
	// scratchCap bytes of them at most. ranges is a sparse frame's list.
	hdrs       []byte
	scratch    *[]byte
	scratchCap int
	ranges     []fieldwire.Range
	// desc holds the encoding of the descriptor item being framed — here,
	// not on the stack, because what the checksum is handed escapes.
	desc [shm.DescriptorSize]byte
}

// newEgressBatch makes a pubConn's batch, framed as the link was
// admitted and written to the link's sink.
func newEgressBatch(pc *pubConn) *egressBatch {
	b := &egressBatch{sink: pc.conn, ep: pc.ep}
	var reg *obs.Registry // nil when metrics are disabled, or pc has no endpoint (unit tests)
	if pc.ep != nil {
		b.writeTimeout, reg = pc.ep.writeTimeout, pc.ep.node.metrics
	}
	b.stats = reg.Egress()
	switch {
	case pc.shm != nil:
		b.mode, b.sink = modeShm, pc.shm.queue
	case pc.mask != nil:
		b.mode, b.mask, b.fw = modeMasked, pc.mask, reg.Fieldwire()
	}
	return b.size(maxBatchFrames, maxBatchBytes)
}

// size sets the batch caps and allocates the storage they need. Per
// frame that is a header and a prefix (the tag, or a table of the
// mask's range bound), a body of up to coalesceThreshold bytes when
// coalesced, and a header vector plus a vector per body span — one, or
// one per range — when not; coalesced runs add at most a vector each.
func (b *egressBatch) size(maxFrames, maxBytes int) *egressBatch {
	prefix, spans := 0, 1
	b.maxFrame, b.maxBytes = maxFrameSize, maxBytes
	switch b.mode {
	case modeShm:
		prefix, b.maxFrame = 1, maxTaggedFrameSize
	case modeMasked:
		r := b.mask.MaxRanges()
		prefix, spans = fieldwire.TableLen(r), max(r, 1)
		b.ranges = make([]fieldwire.Range, 0, r)
	}
	head := wire.FrameHeaderSize + prefix
	b.items = make([]frameItem, maxFrames)
	b.spans = make([]egressTally, maxFrames+1)
	b.vecs = make([][]byte, 0, maxFrames*(2+spans))
	b.outStore = make([][]byte, cap(b.vecs))
	b.hdrs = make([]byte, 0, maxFrames*head)
	b.scratchCap = maxFrames * (head + coalesceThreshold)
	return b
}

// full reports whether the batch should stop draining the queue.
func (b *egressBatch) full() bool {
	return b.n >= len(b.items) || b.bytes >= b.maxBytes
}

// add accepts one queued item into the batch.
func (b *egressBatch) add(it frameItem) {
	b.items[b.n] = it
	b.n++
	b.bytes += len(it.data)
}

// flush encodes the batch, ships it to the link's sink and releases the
// items. It reports whether the link is still usable.
func (b *egressBatch) flush() bool {
	b.encode(1)
	ok := b.writeTo(b.sink, 0)
	b.reset()
	return ok
}

// encode renders the batch into write vectors once, however many sinks
// it is then written to. A frame above the link's frame cap is refused
// — no byte of it is written, so the receiver never skips it as stream
// damage — and counted as a drop on each of the links the batch is
// bound for.
func (b *egressBatch) encode(links int) {
	vecs, hdrs := b.vecs[:0], b.hdrs[:0]
	var sc []byte
	if b.scratch != nil {
		sc = (*b.scratch)[:0]
	}
	runStart := -1 // offset in sc where the open coalesced run began
	var t egressTally
	for i := 0; i < b.n; i++ {
		b.spans[i] = t
		it := &b.items[i]
		p, prefix, body, sliced := it.data, 0, len(it.data), false
		switch b.mode {
		case modeShm:
			prefix = 1
			if it.tag == tagDescriptor {
				p = it.desc.AppendTo(b.desc[:0]) // coalesced below, so one buffer serves the batch
				body = len(p)
			}
		case modeMasked:
			prefix, body, sliced = b.slice(p)
		}
		size := prefix + body
		if size > b.maxFrame {
			b.ep.refuseOversized(size, links)
			continue
		}

		// The header goes first but waits for the checksum, which covers
		// the prefix written behind it.
		coalesce := body <= coalesceThreshold
		dst := hdrs
		if coalesce {
			if b.scratch == nil {
				b.scratch = egressScratchPool.Get().(*[]byte)
				if cap(*b.scratch) < b.scratchCap {
					*b.scratch = make([]byte, 0, b.scratchCap)
				}
				sc = (*b.scratch)[:0]
			}
			if runStart < 0 {
				runStart = len(sc)
			}
			dst = sc
		}
		h := len(dst)
		dst = dst[:h+wire.FrameHeaderSize]
		switch {
		case b.mode == modeShm:
			tag := it.tag
			if tag == 0 {
				tag = tagInline // latched items carry message bytes
			}
			dst = append(dst, tag)
		case sliced:
			dst = fieldwire.AppendTable(dst, len(p), b.ranges, p)
			if fw := b.fw; fw != nil {
				fw.SparseFrames.Inc()
				fw.BytesSaved.Add(uint64(len(p) - size))
			}
		case b.mode == modeMasked:
			dst = fieldwire.AppendFullTable(dst, len(p))
			if fw := b.fw; fw != nil {
				fw.FullFrames.Inc()
			}
		}
		// The one checksum rule: the publish-time stamp when there is one
		// — over the payload, or tag‖payload on a tagged link — else hash
		// prefix‖body here, without joining them. A sparse payload is not
		// what was stamped.
		crc, pre := it.crc, dst[h+wire.FrameHeaderSize:]
		switch {
		case sliced:
			crc = wire.Checksum(pre)
			for _, r := range b.ranges {
				crc = wire.ChecksumUpdate(crc, p[r.Off:r.End()])
			}
		case !it.crcOK || b.mode == modeMasked:
			crc = wire.Checksum2(pre, p)
		}
		wire.PutFrameHeader(dst[h:], size, crc)
		t.frames++
		t.bytes += wire.FrameHeaderSize + size

		if coalesce {
			if sliced {
				for _, r := range b.ranges {
					dst = append(dst, p[r.Off:r.End()]...)
				}
			} else {
				dst = append(dst, p...)
			}
			sc = dst
			t.coalesced++
			continue
		}
		if runStart >= 0 {
			vecs = append(vecs, sc[runStart:len(sc):len(sc)])
			runStart = -1
		}
		hdrs = dst
		vecs = append(vecs, hdrs[h:len(hdrs):len(hdrs)])
		if sliced {
			for _, r := range b.ranges {
				vecs = append(vecs, p[r.Off:r.End()])
			}
		} else {
			vecs = append(vecs, p)
		}
	}
	if runStart >= 0 {
		vecs = append(vecs, sc[runStart:len(sc):len(sc)])
	}
	b.vecs, b.spans[b.n] = vecs, t
}

// slice picks a masked link's payload for message p: the ranges the
// mask selects behind their table, in b.ranges, when that saves bytes;
// else the whole message behind a full-fallback header.
func (b *egressBatch) slice(p []byte) (prefix, body int, sliced bool) {
	rs, err := b.mask.AppendRanges(b.ranges[:0], p)
	b.ranges = rs
	if err == nil {
		for _, r := range rs {
			body += r.Len
		}
		// Slicing must save bytes; a mask covering (nearly) the whole
		// message ships as a full payload, sparing the receiver the
		// range walk.
		if prefix = fieldwire.TableLen(len(rs)); prefix+body < len(p) {
			return prefix, body, true
		}
	}
	return fieldwire.HeaderSize, len(p), false
}

// writeTo ships frames [from, n) of the encoded batch to sink as one
// vectored write under one deadline, and reports whether sink is still
// usable. A from above zero serves a shard member that already has the
// run's first frames: the write starts where frame from's span does,
// inside a coalesced vector if that is where the frame sits.
func (b *egressBatch) writeTo(sink frameSink, from int) bool {
	sp, end := b.spans[from], b.spans[b.n]
	t := egressTally{end.frames - sp.frames, end.coalesced - sp.coalesced, end.bytes - sp.bytes}
	if t.frames == 0 {
		return true // the member has it all, or the cap refused every frame
	}
	skip, vs := sp.bytes, b.vecs
	for skip >= len(vs[0]) {
		skip -= len(vs[0])
		vs = vs[1:]
	}
	b.out = append(b.outStore[:0], vs...)
	b.out[0] = b.out[0][skip:]
	if b.writeTimeout > 0 {
		sink.SetWriteDeadline(time.Now().Add(b.writeTimeout))
	}
	_, err := b.out.WriteTo(sink)
	clear(b.out) // what a failed write left; a complete one consumed (nil-ed) them all
	b.note(t)
	return err == nil
}

// note records one write in the egress instruments, and in the shard's
// where they apply. It runs after the write, off the path a lockstep
// subscriber waits on; the field-wire outcome of a frame is counted as
// the frame is framed, so a subscriber that sees a sparse frame sees it
// counted.
func (b *egressBatch) note(t egressTally) {
	if st := b.stats; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(t.frames))
		st.Coalesced.Add(uint64(t.coalesced))
		st.FramesPerWrite.Observe(int64(t.frames))
		st.BytesPerWrite.Observe(int64(t.bytes))
	}
	if st := b.shard; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(t.frames))
		st.Bytes.Add(uint64(t.bytes))
	}
}

// reset releases the items and drops every payload reference, so a
// quiet link doesn't pin the last batch's arenas.
func (b *egressBatch) reset() {
	clear(b.vecs)
	for i := 0; i < b.n; i++ {
		b.items[i].release()
		b.items[i] = frameItem{}
	}
	b.n, b.bytes = 0, 0
}

// close returns pooled storage; the batch must be empty.
func (b *egressBatch) close() {
	if b.scratch != nil {
		egressScratchPool.Put(b.scratch)
		b.scratch = nil
	}
}
