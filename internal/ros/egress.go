package ros

import (
	"io"
	"net"
	"sync"
	"time"

	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Batched, vectored publisher egress.
//
// The write loop of every pubConn ships frames through an egressBatch:
// after blocking on one queued item it greedily drains whatever is
// ALREADY queued — never waiting for more — and sends the whole run as
// one vectored write. Latency is therefore unchanged (an item that
// arrives alone goes out alone, immediately) while a backlogged queue
// collapses into one syscall per batch instead of two per frame.
//
// Frames whose payload is at or below coalesceThreshold are copied into
// a pooled contiguous scratch buffer: at that size the copy is cheaper
// than giving the kernel another iovec, and consecutive small frames
// merge into a single write vector. Larger frames travel zero-copy as
// their own header+payload vector pair, straight from the arena.
//
// All batch storage (item slots, header scratch, vector table) has
// fixed capacity and is reused across batches, so the steady-state
// batched write performs no heap allocation; the coalesce scratch is
// the one large buffer, taken from a pool on first use and returned
// when the connection's write loop exits.
const (
	// maxBatchFrames bounds how many queued frames one vectored write may
	// carry. 32 covers a fully backlogged default queue (16) twice over
	// while keeping the iovec table well under IOV_MAX.
	maxBatchFrames = 32

	// maxBatchBytes stops draining once a batch holds this much payload;
	// the frame that crosses the line still ships (a batch always accepts
	// its first item, and the budget is checked before pulling the next).
	maxBatchBytes = 256 << 10

	// coalesceThreshold is the payload size at or below which a frame's
	// bytes are copied into the batch scratch instead of travelling as
	// their own iovec.
	coalesceThreshold = 4 << 10

	// egressScratchCap sizes the pooled coalesce buffer so that appending
	// maxBatchFrames maximal coalesced frames (header + tag + payload)
	// can never reallocate — reallocation would invalidate the write
	// vectors already pointing into the buffer.
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

// egressBatch is one pubConn's reusable batch state. All fixed-size
// storage lives inline; collect/flush cycles reuse it without
// allocating.
type egressBatch struct {
	sink         frameSink
	writeTimeout time.Duration
	stats        *obs.EgressStats // nil when metrics are disabled
	tagged       bool             // connection negotiated shm framing

	items [maxBatchFrames]frameItem
	n     int
	bytes int // payload bytes queued (batch budget)

	// vecStore backs the net.Buffers handed to WriteTo. Worst case every
	// frame is large (header vector + payload vector); coalesced runs
	// only ever shrink the count.
	vecStore [2 * maxBatchFrames][]byte
	// hdrBuf backs the header vectors of non-coalesced frames; sized so
	// appends can never reallocate under vectors already issued.
	hdrBuf [maxBatchFrames * (wire.FrameHeaderSize + 1)]byte
	// scratch is the pooled coalesce buffer, borrowed on first use and
	// returned by close.
	scratch *[]byte
	// desc holds the encoding of the descriptor item being framed, tagb
	// its tag for the checksum — here, not on the stack, because what
	// the checksum is handed escapes.
	desc [shm.DescriptorSize]byte
	tagb [1]byte
	// vecs is the field WriteTo consumes; keeping it on the (heap-
	// resident) batch rather than the stack stops the vector header
	// escaping per flush.
	vecs net.Buffers
}

func newEgressBatch(pc *pubConn) *egressBatch {
	b := &egressBatch{sink: pc.conn, writeTimeout: pc.writeTimeout, stats: pc.egress}
	if pc.shm != nil {
		b.sink, b.tagged = pc.shm.queue, true
	}
	return b
}

// full reports whether the batch should stop draining the queue.
func (b *egressBatch) full() bool {
	return b.n >= maxBatchFrames || b.bytes >= maxBatchBytes
}

// add accepts one queued item into the batch. The write attempt is now
// imminent: a descriptor item's peer reference is the peer's from here
// on (see pubConn.discard), and the batch only ever releases arenas.
func (b *egressBatch) add(it frameItem) {
	b.items[b.n] = it
	b.n++
	b.bytes += len(it.data)
}

// flush encodes every batched frame into write vectors and ships them
// as one vectored write under a single deadline, then releases the
// items. It reports whether the connection is still usable.
func (b *egressBatch) flush() bool {
	if b.n == 0 {
		return true
	}
	if b.writeTimeout > 0 {
		b.sink.SetWriteDeadline(time.Now().Add(b.writeTimeout))
	}
	vecs := b.vecStore[:0]
	hdrs := b.hdrBuf[:0]
	var sc []byte
	if b.scratch != nil {
		sc = (*b.scratch)[:0]
	}
	runStart := -1 // offset in sc where the open coalesced run began
	coalesced := 0
	wireBytes := 0
	for i := 0; i < b.n; i++ {
		it := &b.items[i]
		p := it.data
		tag := it.tag
		if tag == tagDescriptor {
			p = it.desc.AppendTo(b.desc[:0]) // coalesced below, so one buffer serves the batch
		}
		if b.tagged && tag == 0 {
			tag = tagInline // latched items carry message bytes
		}
		crc := it.crc
		if !it.crcOK {
			if b.tagged {
				b.tagb[0] = tag
				crc = wire.Checksum2(b.tagb[:], p)
			} else {
				crc = wire.Checksum(p)
			}
		}
		wireBytes += wire.FrameHeaderSize + len(p)
		if b.tagged {
			wireBytes++
		}
		if len(p) <= coalesceThreshold {
			if b.scratch == nil {
				b.scratch = egressScratchPool.Get().(*[]byte)
				sc = (*b.scratch)[:0]
			}
			if runStart < 0 {
				runStart = len(sc)
			}
			if b.tagged {
				sc = wire.AppendTaggedFrameHeader(sc, tag, len(p), crc)
			} else {
				sc = wire.AppendFrameHeader(sc, len(p), crc)
			}
			sc = append(sc, p...)
			coalesced++
			continue
		}
		if runStart >= 0 {
			vecs = append(vecs, sc[runStart:len(sc):len(sc)])
			runStart = -1
		}
		h := len(hdrs)
		if b.tagged {
			hdrs = wire.AppendTaggedFrameHeader(hdrs, tag, len(p), crc)
		} else {
			hdrs = wire.AppendFrameHeader(hdrs, len(p), crc)
		}
		vecs = append(vecs, hdrs[h:len(hdrs):len(hdrs)], p)
	}
	if runStart >= 0 {
		vecs = append(vecs, sc[runStart:len(sc):len(sc)])
	}

	b.vecs = vecs
	_, err := b.vecs.WriteTo(b.sink)

	if st := b.stats; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(b.n))
		st.Coalesced.Add(uint64(coalesced))
		st.FramesPerWrite.Observe(int64(b.n))
		st.BytesPerWrite.Observe(int64(wireBytes))
	}
	// Drop payload references so a quiet connection doesn't pin the last
	// batch's arenas, and release the items' arena references.
	for i := range vecs {
		vecs[i] = nil
	}
	for i := 0; i < b.n; i++ {
		b.items[i].release()
		b.items[i] = frameItem{}
	}
	b.n = 0
	b.bytes = 0
	return err == nil
}

// close returns pooled storage; the batch must be empty.
func (b *egressBatch) close() {
	if b.scratch != nil {
		egressScratchPool.Put(b.scratch)
		b.scratch = nil
	}
}
