package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// chunkReader serves a byte stream in caller-chosen chunk sizes, so
// tests control exactly where batch boundaries fall relative to frame
// boundaries.
type chunkReader struct {
	data  []byte
	sizes []int
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.sizes) > 0 {
		s := c.sizes[c.i%len(c.sizes)]
		c.i++
		if s < 1 {
			s = 1
		}
		if s < n {
			n = s
		}
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// decodedFrame is one frame observed by a decode pass, plus whether the
// payload verified against the header CRC.
type decodedFrame struct {
	n       int
	crc     uint32
	payload []byte
	valid   bool
}

// decodeResult is everything observable from draining one stream.
type decodeResult struct {
	frames  []decodedFrame
	skipped uint64
	err     error
}

// decodeWithScanner drains a stream through the sequential per-frame
// path: FrameScanner.Next then io.ReadFull for each payload — the exact
// shape of the pre-batching receive pumps.
func decodeWithScanner(r io.Reader, maxLen int) decodeResult {
	var res decodeResult
	s := NewFrameScanner(r, maxLen)
	for {
		n, crc, err := s.Next()
		if err != nil {
			res.err = err
			res.skipped = s.SkippedBytes()
			return res
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			res.err = err
			res.skipped = s.SkippedBytes()
			return res
		}
		res.frames = append(res.frames, decodedFrame{
			n: n, crc: crc, payload: payload, valid: Checksum(payload) == crc,
		})
	}
}

// decodeWithIngress drains a stream through the batched reader,
// alternating the in-place Payload path and the copy-out ReadFull path
// so both are exercised against the same reference.
func decodeWithIngress(r io.Reader, maxLen int) decodeResult {
	var res decodeResult
	ir := NewIngressReader(r, maxLen)
	defer ir.Release()
	for i := 0; ; i++ {
		n, crc, err := ir.Next()
		if err != nil {
			res.err = err
			res.skipped = ir.SkippedBytes()
			return res
		}
		var payload []byte
		if i%2 == 0 {
			p, ok, err := ir.Payload(n)
			if err != nil {
				res.err = err
				res.skipped = ir.SkippedBytes()
				return res
			}
			if ok {
				payload = append([]byte(nil), p...)
			}
		}
		if payload == nil {
			payload = make([]byte, n)
			if err := ir.ReadFull(payload); err != nil {
				res.err = err
				res.skipped = ir.SkippedBytes()
				return res
			}
		}
		res.frames = append(res.frames, decodedFrame{
			n: n, crc: crc, payload: payload, valid: Checksum(payload) == crc,
		})
	}
}

func compareDecodes(t *testing.T, want, got decodeResult, ctx string) {
	t.Helper()
	if len(want.frames) != len(got.frames) {
		t.Fatalf("%s: scanner decoded %d frames, ingress %d", ctx, len(want.frames), len(got.frames))
	}
	for i := range want.frames {
		w, g := want.frames[i], got.frames[i]
		if w.n != g.n || w.crc != g.crc || w.valid != g.valid || !bytes.Equal(w.payload, g.payload) {
			t.Fatalf("%s: frame %d differs: scanner (n=%d crc=%08x valid=%v) vs ingress (n=%d crc=%08x valid=%v)",
				ctx, i, w.n, w.crc, w.valid, g.n, g.crc, g.valid)
		}
	}
	if want.skipped != got.skipped {
		t.Fatalf("%s: skipped bytes differ: scanner %d, ingress %d", ctx, want.skipped, got.skipped)
	}
	// Terminal errors must agree in kind (clean EOF vs truncation).
	if (want.err == io.EOF) != (got.err == io.EOF) {
		t.Fatalf("%s: terminal errors differ: scanner %v, ingress %v", ctx, want.err, got.err)
	}
}

// buildStream renders a frame sequence (with optional interleaved
// garbage and corruption) for the equivalence tests.
func buildStream(rng *rand.Rand, frames int) []byte {
	var stream []byte
	for i := 0; i < frames; i++ {
		// Occasional leading garbage forces resync scans.
		if rng.Intn(4) == 0 {
			g := make([]byte, rng.Intn(40))
			rng.Read(g)
			stream = append(stream, g...)
		}
		size := rng.Intn(6000)
		payload := make([]byte, size)
		rng.Read(payload)
		frame := AppendFrame(nil, payload)
		// Some frames arrive damaged: flip a byte inside the payload (the
		// CRC rejects it) — the headers stay parseable so both decoders
		// must walk identical frame sequences.
		if size > 0 && rng.Intn(5) == 0 {
			frame[FrameHeaderSize+rng.Intn(size)] ^= 0xFF
		}
		stream = append(stream, frame...)
	}
	return stream
}

// TestIngressEquivalenceProperty is the batched-ingress property test:
// for random frame sequences — including damaged payloads, garbage
// between frames, and frames split across arbitrary batch boundaries —
// the IngressReader must observe the byte-identical (length, crc,
// payload, verdict) sequence and skipped-byte count as the sequential
// FrameScanner path. Chunk sizes are fuzzed so frame headers and
// payloads straddle every possible fill boundary.
func TestIngressEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		stream := buildStream(rng, 1+rng.Intn(30))
		// Fuzz the split points: a fresh random chunk-size schedule per
		// iteration, from byte-at-a-time up to whole-stream gulps.
		sizes := make([]int, 1+rng.Intn(8))
		for j := range sizes {
			switch rng.Intn(3) {
			case 0:
				sizes[j] = 1 + rng.Intn(7) // tiny: headers always straddle fills
			case 1:
				sizes[j] = 1 + rng.Intn(512)
			default:
				sizes[j] = 1 + rng.Intn(len(stream)+1)
			}
		}
		want := decodeWithScanner(&chunkReader{data: append([]byte(nil), stream...), sizes: sizes}, 1<<20)
		got := decodeWithIngress(&chunkReader{data: append([]byte(nil), stream...), sizes: sizes}, 1<<20)
		compareDecodes(t, want, got, "random stream")
	}
}

// FuzzIngressEquivalence feeds arbitrary bytes — mostly garbage,
// sometimes accidental frames — through both decode paths with a
// fuzzer-chosen chunking and requires identical observations.
func FuzzIngressEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add(AppendFrame(nil, []byte("hello")), uint8(3))
	f.Add(append([]byte{0xFF, 0x00}, AppendFrame(nil, bytes.Repeat([]byte{7}, 100))...), uint8(13))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		sizes := []int{int(chunk)%64 + 1}
		want := decodeWithScanner(&chunkReader{data: append([]byte(nil), data...), sizes: sizes}, 1<<16)
		got := decodeWithIngress(&chunkReader{data: append([]byte(nil), data...), sizes: sizes}, 1<<16)
		if len(want.frames) != len(got.frames) || want.skipped != got.skipped {
			t.Fatalf("decode divergence: scanner %d frames/%d skipped, ingress %d frames/%d skipped",
				len(want.frames), want.skipped, len(got.frames), got.skipped)
		}
		for i := range want.frames {
			if !bytes.Equal(want.frames[i].payload, got.frames[i].payload) ||
				want.frames[i].valid != got.frames[i].valid {
				t.Fatalf("frame %d differs", i)
			}
		}
	})
}

// TestIngressBatchesManyFramesPerRead pins the tentpole property: when
// the kernel (here: the reader) has many frames buffered, one fill
// drains them all and subsequent frames cost zero reads.
func TestIngressBatchesManyFramesPerRead(t *testing.T) {
	var stream []byte
	const frames = 64
	for i := 0; i < frames; i++ {
		stream = append(stream, AppendFrame(nil, bytes.Repeat([]byte{byte(i)}, 100))...)
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	ir := NewIngressReader(cr, 1<<20)
	defer ir.Release()
	for i := 0; i < frames; i++ {
		n, crc, err := ir.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		p, ok, err := ir.Payload(n)
		if err != nil || !ok {
			t.Fatalf("frame %d payload: ok=%v err=%v", i, ok, err)
		}
		if Checksum(p) != crc {
			t.Fatalf("frame %d corrupt", i)
		}
	}
	// 64 × 112-byte frames ≈ 7 KiB: after the initial 4 KiB buffer fills
	// and one growth step, the whole stream fits in a handful of reads —
	// the sequential path would take 128.
	if cr.reads > 6 {
		t.Fatalf("batched ingress used %d reads for %d frames; want ≤ 6", cr.reads, frames)
	}
}

type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestIngressResyncAcrossBatchBoundary damages a stream so that the
// resync scan must cross a fill boundary mid-header: the reader has to
// carry partial-header state between batches, as FrameScanner carries
// its header window.
func TestIngressResyncAcrossBatchBoundary(t *testing.T) {
	good := AppendFrame(nil, []byte("after the damage"))
	// 20 garbage bytes, then a valid frame; chunk size 3 guarantees both
	// the garbage and the header straddle several fills.
	stream := append(bytes.Repeat([]byte{0xEE}, 20), good...)
	ir := NewIngressReader(&chunkReader{data: stream, sizes: []int{3}}, 1<<20)
	defer ir.Release()
	n, crc, err := ir.Next()
	if err != nil {
		t.Fatal(err)
	}
	p, ok, err := ir.Payload(n)
	if err != nil || !ok {
		t.Fatalf("payload: ok=%v err=%v", ok, err)
	}
	if Checksum(p) != crc || string(p) != "after the damage" {
		t.Fatalf("recovered payload %q", p)
	}
	if ir.SkippedBytes() != 20 {
		t.Fatalf("skipped %d bytes, want 20", ir.SkippedBytes())
	}
}

// TestIngressOversizedPayloadRoutesToReadFull: payloads beyond the
// batch ceiling are refused by Payload (ok=false) and stream through
// ReadFull into caller storage without a detour through the batch.
func TestIngressOversizedPayloadRoutesToReadFull(t *testing.T) {
	big := bytes.Repeat([]byte{0x5A}, IngressMaxBuffer+4096)
	stream := AppendFrame(nil, big)
	ir := NewIngressReader(bytes.NewReader(stream), len(big)+1)
	defer ir.Release()
	n, crc, err := ir.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ir.Payload(n); ok {
		t.Fatal("oversized payload served in place; must defer to ReadFull")
	}
	dst := make([]byte, n)
	if err := ir.ReadFull(dst); err != nil {
		t.Fatal(err)
	}
	if Checksum(dst) != crc || !bytes.Equal(dst, big) {
		t.Fatal("oversized payload corrupted through ReadFull")
	}
	if c := cap(*ir.buf); c > IngressMaxBuffer {
		t.Fatalf("batch buffer grew to %d for an oversized payload", c)
	}
}

// TestIngressLargeFramesAreNotABurst: back-to-back frames larger than
// IngressMaxBuffer fill the batch on every Read, but each is one frame
// that ReadFull moves straight into caller storage, so the batch stays
// at the floor and copies at most a floor's worth of each. A burst of
// 4 KiB frames on the same reader afterwards still grows it.
func TestIngressLargeFramesAreNotABurst(t *testing.T) {
	const frames, size = 6, 1_440_000
	payload := bytes.Repeat([]byte{0x6B}, size)
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = AppendFrame(stream, payload)
	}
	for i := 0; i < 64; i++ {
		stream = AppendFrame(stream, bytes.Repeat([]byte{byte(i)}, 4096))
	}
	ir := NewIngressReader(&chunkReader{data: stream}, size)
	floor := make([]byte, IngressMinBuffer)
	ir.buf = &floor
	defer ir.Release()
	dst := make([]byte, size)
	for i := 0; i < frames; i++ {
		n, crc, err := ir.Next()
		if err != nil || n != size {
			t.Fatalf("frame %d: n=%d err=%v", i, n, err)
		}
		if err := ir.ReadFull(dst); err != nil || Checksum(dst) != crc {
			t.Fatalf("frame %d: err=%v, checksum ok=%v", i, err, Checksum(dst) == crc)
		}
		if c := cap(*ir.buf); c != IngressMinBuffer {
			t.Fatalf("frame %d: batch grew to %d bytes under %d-byte frames", i, c, size)
		}
	}
	for i := 0; i < 64; i++ {
		n, crc, err := ir.Next()
		if err != nil {
			t.Fatalf("small frame %d: %v", i, err)
		}
		p, ok, err := ir.Payload(n)
		if err != nil || !ok || Checksum(p) != crc {
			t.Fatalf("small frame %d: ok=%v err=%v", i, ok, err)
		}
	}
	if c := cap(*ir.buf); c <= IngressMinBuffer {
		t.Fatalf("a 4 KiB burst after the large frames left the batch at %d bytes", c)
	}
}

// TestIngressBufferGrowthAndDecay: a burst doubles the batch buffer up
// to the ceiling; a long run of sparse fills decays it back to the
// recent peak, like the subscriber scratch buffer.
func TestIngressBufferGrowthAndDecay(t *testing.T) {
	// Phase 1: burst. A reader that always has data forces fills at full
	// capacity, growing the buffer.
	var burst []byte
	for i := 0; i < 256; i++ {
		burst = append(burst, AppendFrame(nil, bytes.Repeat([]byte{1}, 1024))...)
	}
	ir := NewIngressReader(&chunkReader{data: burst}, 1<<20)
	for {
		n, _, err := ir.Next()
		if err != nil {
			break
		}
		if _, ok, err := ir.Payload(n); err != nil || !ok {
			t.Fatalf("payload: ok=%v err=%v", ok, err)
		}
	}
	grown := cap(*ir.buf)
	if grown <= IngressMinBuffer {
		t.Fatalf("buffer never grew under burst: cap=%d", grown)
	}
	if grown > IngressMaxBuffer {
		t.Fatalf("buffer exceeded ceiling: cap=%d", grown)
	}
	ir.Release()

	// Phase 2: decay. Reuse a reader whose buffer is large, then serve a
	// long run of trickle traffic (tiny fills) and watch it shrink.
	small := AppendFrame(nil, []byte{0xAA})
	var trickle []byte
	for i := 0; i < 2*ingressShrinkAfter; i++ {
		trickle = append(trickle, small...)
	}
	ir2 := NewIngressReader(&chunkReader{data: trickle, sizes: []int{len(small)}}, 1<<20)
	// Seed a large buffer directly (as a burst would have left it).
	big := make([]byte, IngressMaxBuffer)
	ir2.buf = &big
	for {
		n, _, err := ir2.Next()
		if err != nil {
			break
		}
		if err := ir2.Discard(n); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(*ir2.buf); c >= IngressMaxBuffer {
		t.Fatalf("buffer never decayed: cap=%d", c)
	}
	ir2.Release()
}

// loopReader replays a prebuilt stream forever — the zero-alloc guard's
// infinite frame source.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off += n
	if l.off == len(l.data) {
		l.off = 0
	}
	return n, nil
}

// TestIngressZeroAllocs pins the hot-path cost contract: once the batch
// buffer is warm, draining frames — header scan, in-place payload
// slice, CRC verify — allocates nothing per frame.
func TestIngressZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	var stream []byte
	const frames = 32
	for i := 0; i < frames; i++ {
		stream = append(stream, AppendFrame(nil, bytes.Repeat([]byte{byte(i)}, 1024))...)
	}
	src := &loopReader{data: stream}
	ir := NewIngressReader(src, 1<<20)
	defer ir.Release()
	// Warm the buffer to steady state before measuring.
	for i := 0; i < 4*frames; i++ {
		n, crc, err := ir.Next()
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := ir.Payload(n)
		if err != nil || !ok {
			t.Fatalf("payload: ok=%v err=%v", ok, err)
		}
		if Checksum(p) != crc {
			t.Fatal("corrupt frame")
		}
	}
	measure := func() int64 {
		res := testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				n, crc, err := ir.Next()
				if err != nil {
					bb.Fatal(err)
				}
				p, ok, err := ir.Payload(n)
				if err != nil || !ok {
					bb.Fatalf("payload: ok=%v err=%v", ok, err)
				}
				if Checksum(p) != crc {
					bb.Fatal("corrupt frame")
				}
			}
		})
		return res.AllocsPerOp()
	}
	allocs := measure()
	for i := 0; i < 2 && allocs > 0; i++ {
		if v := measure(); v < allocs {
			allocs = v
		}
	}
	if allocs != 0 {
		t.Fatalf("batched ingress allocs/op = %d, want 0", allocs)
	}
}

// TestIngressInterleavedRawBytes covers the service-client shape: a
// non-frame status byte precedes each frame and must come out of the
// same batch, in order.
func TestIngressInterleavedRawBytes(t *testing.T) {
	var stream []byte
	const calls = 16
	for i := 0; i < calls; i++ {
		stream = append(stream, byte(1)) // status byte
		stream = append(stream, AppendFrame(nil, []byte{byte(i), byte(i + 1)})...)
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	ir := NewIngressReader(cr, 1<<20)
	defer ir.Release()
	for i := 0; i < calls; i++ {
		var status [1]byte
		if err := ir.ReadFull(status[:]); err != nil {
			t.Fatal(err)
		}
		if status[0] != 1 {
			t.Fatalf("call %d: status %d", i, status[0])
		}
		n, crc, err := ir.Next()
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := ir.Payload(n)
		if err != nil || !ok {
			t.Fatalf("payload: ok=%v err=%v", ok, err)
		}
		if Checksum(p) != crc || p[0] != byte(i) {
			t.Fatalf("call %d: bad payload %v", i, p)
		}
	}
	if cr.reads > 2 {
		t.Fatalf("%d reads for %d status+reply exchanges; want the batch to drain them", cr.reads, calls)
	}
}

// TestIngressLargeFramesDecayAGrownBatch: a reader that starts with a
// grown batch (a pooled buffer, or one an earlier burst left) and then
// sees only frames larger than IngressMaxBuffer must let the batch decay
// to the floor. Every such Read fills the batch, yet each is one frame
// that ReadFull moves into caller storage, so a batch kept large copies
// its whole capacity of every frame out of the batch.
func TestIngressLargeFramesDecayAGrownBatch(t *testing.T) {
	const frames, size = 40, 1_440_000
	payload := bytes.Repeat([]byte{0x3C}, size)
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = AppendFrame(stream, payload)
	}
	ir := NewIngressReader(&chunkReader{data: stream}, size)
	grown := make([]byte, IngressMaxBuffer)
	ir.buf = &grown
	defer ir.Release()
	dst := make([]byte, size)
	batched := 0 // bytes of the last frame copied out of the batch
	for i := 0; i < frames; i++ {
		n, crc, err := ir.Next()
		if err != nil || n != size {
			t.Fatalf("frame %d: n=%d err=%v", i, n, err)
		}
		batched = ir.Buffered()
		if err := ir.ReadFull(dst); err != nil || Checksum(dst) != crc {
			t.Fatalf("frame %d: err=%v, checksum ok=%v", i, err, Checksum(dst) == crc)
		}
	}
	if batched > IngressMinBuffer {
		t.Fatalf("frame %d still copied %d bytes out of a %d-byte batch, want at most %d",
			frames-1, batched, cap(*ir.buf), IngressMinBuffer)
	}
}
