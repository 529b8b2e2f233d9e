package wire

import (
	"encoding/binary"
	"io"
	"sync"
)

// Batched ingress: one read wakeup drains many frames.
//
// FrameScanner (above) costs two syscalls per frame — one ReadFull for
// the 12-byte header, one for the payload — which is exactly the
// per-frame overhead the egress side already escaped with vectored
// batched writes. IngressReader is the receive-side mirror: it keeps a
// pooled, adaptively-sized batch buffer and fills it with a single
// conn.Read that takes *everything* the kernel has buffered (up to the
// buffer's capacity), then slices complete frames out of the batch in
// place. A backlogged stream collapses to one wakeup per dozens of
// frames; an idle stream still delivers each frame the moment it
// arrives (Read returns as soon as any bytes exist — the reader never
// waits for a batch to form, so latency is unchanged).
//
// The buffer breathes with the traffic, like the subscriber scratch
// buffer: a Read that fills the whole buffer signals a burst and doubles
// the capacity (up to IngressMaxBuffer) — unless the Read ended inside
// a frame larger than IngressMaxBuffer, which bypasses the batch
// through ReadFull and is one frame, not a burst; a long run of
// mostly-empty fills decays it back toward the floor. Partial frames at the end of a
// batch are handed to the next fill by moving only the tail bytes —
// never the whole buffer.
//
// Corruption handling is identical to FrameScanner's reject-and-resync:
// a header is plausible when the magic matches and the length is within
// bounds; implausible bytes are skipped one at a time, and a partial
// header at the end of one batch is completed by the next, so resync
// state survives batch boundaries.
const (
	// IngressMinBuffer is the batch buffer's floor (and initial)
	// capacity — matches the subscriber scratch floor.
	IngressMinBuffer = 4 << 10
	// IngressMaxBuffer caps burst growth. It mirrors the egress side's
	// maxBatchBytes: one ingress wakeup can at most drain what one
	// egress flush ships.
	IngressMaxBuffer = 256 << 10
	// ingressShrinkAfter is how many consecutive sparse fills (batch
	// high-water ≤ cap/4) must pass before the buffer decays, mirroring
	// scratchBuf's hysteresis so alternating bursts never thrash.
	ingressShrinkAfter = 32
)

// ingressPool recycles batch buffers across connection lifetimes: a
// reconnecting subscriber or a churning service client reuses warm
// storage instead of re-growing from the floor every dial.
var ingressPool = sync.Pool{
	New: func() any {
		buf := make([]byte, IngressMinBuffer)
		return &buf
	},
}

// IngressReader consumes checked frames from a stream through a batch
// buffer. The protocol per frame is Next (header: length + expected
// CRC) followed by exactly one of Payload / ReadFull / Discard for the
// announced payload; callers verify the payload with Checksum against
// the returned crc, exactly as with FrameScanner. Between frames,
// ReadFull may also consume non-frame stream bytes (the service
// protocol's status byte), which land in the same batch.
//
// IngressReader is not safe for concurrent use.
type IngressReader struct {
	r      io.Reader
	maxLen int

	buf        *[]byte // pooled batch storage; nil after Release
	start, end int     // buffered window within *buf

	skipped uint64 // bytes discarded while resynchronizing

	// lastFull records that the previous fill's Read filled the buffer to
	// capacity — the burst signal that triggers growth on the next fill
	// (checked after compaction would erase it from start/end alone).
	lastFull bool

	// Decay state: peak is the buffered high-water across the current
	// run of sparse fills; sparse counts consecutive fills whose
	// high-water stayed ≤ cap/4.
	peak   int
	sparse int
}

// NewIngressReader wraps a stream. Headers announcing payloads larger
// than maxLen are treated as damage and skipped, as in FrameScanner.
func NewIngressReader(r io.Reader, maxLen int) *IngressReader {
	return &IngressReader{r: r, maxLen: maxLen}
}

// SkippedBytes reports how many bytes have been discarded while
// resynchronizing — zero on a healthy stream.
func (ir *IngressReader) SkippedBytes() uint64 { return ir.skipped }

// Buffered reports how many already-read bytes await consumption — test
// and introspection hook.
func (ir *IngressReader) Buffered() int { return ir.end - ir.start }

// Release returns the batch buffer to the pool. The reader must not be
// used afterwards; any buffered bytes are dropped (callers release only
// when abandoning the connection).
func (ir *IngressReader) Release() {
	if ir.buf != nil {
		ingressPool.Put(ir.buf)
		ir.buf = nil
		ir.start, ir.end = 0, 0
	}
}

// grow moves the buffered window into a buffer of at least want bytes
// (rounded to the next power-of-two step from the current capacity).
// The old storage goes back to the pool for the next connection.
func (ir *IngressReader) grow(want int) {
	c := cap(*ir.buf)
	for c < want {
		c *= 2
	}
	nb := make([]byte, c)
	n := copy(nb, (*ir.buf)[ir.start:ir.end])
	ingressPool.Put(ir.buf)
	ir.buf = &nb
	ir.start, ir.end = 0, n
}

// fill compacts the partial tail to the front of the buffer and issues
// one Read for as many bytes as the kernel will give. minFree forces
// room for an oversized in-place payload (0 means "whatever fits");
// capacity grows when the previous fill left the buffer full (burst) or
// when minFree demands it, and decays after a long run of sparse fills.
func (ir *IngressReader) fill(minFree int) error {
	if ir.buf == nil {
		ir.buf = ingressPool.Get().(*[]byte)
		ir.start, ir.end = 0, 0
	}
	// Hand the partial tail to this fill by moving only the tail bytes.
	if ir.start > 0 {
		n := copy(*ir.buf, (*ir.buf)[ir.start:ir.end])
		ir.start, ir.end = 0, n
	}
	c := cap(*ir.buf)
	switch {
	case ir.end+minFree > c:
		// An in-place payload larger than the current buffer: grow to fit
		// (bounded by the caller, which routes anything above
		// IngressMaxBuffer through ReadFull instead).
		ir.grow(ir.end + minFree)
	case ir.lastFull && c < IngressMaxBuffer:
		// The previous fill drained a full buffer's worth in one Read: the
		// stream is bursting ahead of the buffer. Double it.
		ir.grow(c + 1)
	}
	buf := (*ir.buf)[:cap(*ir.buf)]
	for {
		n, err := ir.r.Read(buf[ir.end:])
		ir.end += n
		if n > 0 {
			ir.lastFull = ir.end == len(buf)
			ir.decay()
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decay shrinks a large buffer back toward the recent high-water after
// ingressShrinkAfter consecutive fills that used at most a quarter of
// it, mirroring scratchBuf: steady small traffic releases a burst's
// storage, while recurring bursts reset the run and keep theirs.
func (ir *IngressReader) decay() {
	c := cap(*ir.buf)
	if c <= IngressMinBuffer {
		return
	}
	if ir.end > c/4 {
		ir.sparse, ir.peak = 0, 0
		return
	}
	if ir.end > ir.peak {
		ir.peak = ir.end
	}
	if ir.sparse++; ir.sparse >= ingressShrinkAfter {
		want := ir.peak
		if want < IngressMinBuffer {
			want = IngressMinBuffer
		}
		nb := make([]byte, want)
		n := copy(nb, (*ir.buf)[ir.start:ir.end])
		// The big buffer is NOT pooled on decay — decay exists to release
		// the burst's memory, and a pool entry would pin it.
		ir.buf = &nb
		ir.start, ir.end = 0, n
		ir.sparse, ir.peak = 0, 0
	}
}

// Next locates the next plausible frame header in the batch and returns
// its payload length and expected checksum, refilling the batch from
// the stream only when the buffered bytes are exhausted. Semantics
// match FrameScanner.Next exactly: implausible bytes are dropped one at
// a time (reject-and-resync), io.EOF is returned only at a clean frame
// boundary, and a partial header at EOF is io.ErrUnexpectedEOF.
func (ir *IngressReader) Next() (payloadLen int, crc uint32, err error) {
	for {
		for ir.end-ir.start < FrameHeaderSize {
			if err := ir.fill(0); err != nil {
				if ir.end-ir.start > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, 0, err
			}
		}
		hdr := (*ir.buf)[ir.start:]
		if binary.LittleEndian.Uint32(hdr[0:4]) == FrameMagic {
			length := binary.LittleEndian.Uint32(hdr[4:8])
			if int64(length) <= int64(ir.maxLen) {
				ir.start += FrameHeaderSize
				if int(length) > IngressMaxBuffer && ir.start+int(length) > ir.end {
					// The last fill ended inside a frame too large to
					// batch. ReadFull takes the rest straight into the
					// caller's storage, so a full buffer here was one
					// frame, not a burst: growing it would only lengthen
					// the copy out of the batch.
					ir.lastFull = false
				}
				return int(length), binary.LittleEndian.Uint32(hdr[8:12]), nil
			}
		}
		ir.start++
		ir.skipped++
	}
}

// Payload returns the next n stream bytes sliced in place out of the
// batch buffer, without copying. ok=false (with a nil error) means the
// payload is too large to buffer (> IngressMaxBuffer would be pinned
// for one frame); route it through ReadFull into caller storage
// instead. The returned slice is valid until the next call on the
// reader — callers consume it (verify, decode, copy into an arena)
// before asking for the next frame.
func (ir *IngressReader) Payload(n int) (p []byte, ok bool, err error) {
	if n > IngressMaxBuffer {
		return nil, false, nil
	}
	for ir.end-ir.start < n {
		if err := ir.fill(n - (ir.end - ir.start)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, false, err
		}
	}
	p = (*ir.buf)[ir.start : ir.start+n]
	ir.start += n
	return p, true, nil
}

// ReadFull fills dst with the next len(dst) stream bytes: the buffered
// prefix is copied out of the batch, and any remainder is read straight
// from the stream into dst — a payload larger than the batch (an arena-
// bound megabyte frame) never takes a second trip through the buffer.
func (ir *IngressReader) ReadFull(dst []byte) error {
	n := 0
	if ir.buf != nil {
		n = copy(dst, (*ir.buf)[ir.start:ir.end])
		ir.start += n
	}
	if n == len(dst) {
		return nil
	}
	_, err := io.ReadFull(ir.r, dst[n:])
	if n > 0 && err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Discard consumes and drops n stream bytes (an unusable frame's body),
// keeping the stream framed.
func (ir *IngressReader) Discard(n int) error {
	b := ir.end - ir.start
	if n <= b {
		ir.start += n
		return nil
	}
	n -= b
	ir.start = ir.end
	_, err := io.CopyN(io.Discard, ir.r, int64(n))
	return err
}
