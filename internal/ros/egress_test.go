package ros

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"
	"unsafe"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// discardConn swallows writes; used to drive the egress batch without
// a peer.
type discardConn struct{ stubConn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// captureConn records every written byte; used to inspect the exact
// byte stream a batch puts on the wire.
type captureConn struct {
	stubConn
	buf *bytes.Buffer
}

func (c captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c captureConn) SetWriteDeadline(time.Time) error { return nil }

// TestPublishSFMHashesOncePerFanout pins the single-pass checksum
// property: however many TCP subscribers an SFM publish fans out to,
// the arena is hashed exactly once. With two or more consumers the hash
// runs at publish time and every queued item carries the stamped value,
// so the write loops rehash nothing. With one consumer (and no shard
// pool) the item is enqueued unstamped and the connection's write loop
// pays the one pass — off the publish path, where it overlaps the next
// publish (the 1 MiB x 1-subscriber cell; its timing is watched by the
// tcp_1m_sfm workload in BENCHMARK.json).
func TestPublishSFMHashesOncePerFanout(t *testing.T) {
	for _, fanout := range []int{1, 2, 8} {
		ep := &pubEndpoint{att: &attachments{}}
		conns := make([]*pubConn, 0, fanout)
		for i := 0; i < fanout; i++ {
			pc := &pubConn{
				conn: discardConn{},
				ch:   make(chan frameItem, fanout),
				stop: make(chan struct{}),
			}
			ep.att.conns = append(ep.att.conns, pc)
			conns = append(conns, pc)
		}

		m, err := core.NewWithCapacity[queueMsg](1024)
		if err != nil {
			t.Fatal(err)
		}
		used, err := core.UsedSize(m)
		if err != nil {
			t.Fatal(err)
		}
		atPublish, atWrite := uint64(used), uint64(0)
		if fanout == 1 {
			atPublish, atWrite = 0, uint64(used)
		}

		before := wire.ChecksumBytes()
		if err := publishSFM(ep, m); err != nil {
			t.Fatal(err)
		}
		if d := wire.ChecksumBytes() - before; d != atPublish {
			t.Fatalf("fan-out %d: publish hashed %d bytes, want %d", fanout, d, atPublish)
		}

		// Drain every connection's queue through the batch writer.
		before = wire.ChecksumBytes()
		for _, pc := range conns {
			b := newEgressBatch(pc)
			for len(pc.ch) > 0 {
				it := <-pc.ch
				if it.crcOK != (fanout > 1) {
					t.Fatalf("fan-out %d: queued item stamped = %v", fanout, it.crcOK)
				}
				b.add(it)
			}
			if !b.flush() {
				t.Fatal("flush failed")
			}
			b.close()
		}
		if d := wire.ChecksumBytes() - before; d != atWrite {
			t.Fatalf("fan-out %d: write loops hashed %d bytes, want %d", fanout, d, atWrite)
		}
		core.Release(m)
	}

	// A forced shard pool, 2 shards x 3 members: the publish hashes the
	// payload once, before it takes the snapshot, and stamps the one item
	// each shard gets; the shards' encoders, writing the run to every
	// member, hash nothing.
	ep := metricEndpoint(nil)
	ep.pool = &egressShardPool{ep: ep}
	for i := 0; i < 2; i++ {
		s := &egressShard{ep: ep, pool: ep.pool, ch: make(chan shardItem, 1)}
		for j := 0; j < 3; j++ {
			s.members = append(s.members, &pubConn{conn: discardConn{}, stop: make(chan struct{})})
		}
		ep.pool.shards = append(ep.pool.shards, s)
	}
	ep.poolActive.Store(true)
	m, err := core.NewWithCapacity[queueMsg](1024)
	if err != nil {
		t.Fatal(err)
	}
	used, err := core.UsedSize(m)
	if err != nil {
		t.Fatal(err)
	}
	before := wire.ChecksumBytes()
	if err := publishSFM(ep, m); err != nil {
		t.Fatal(err)
	}
	if d := wire.ChecksumBytes() - before; d != uint64(used) {
		t.Fatalf("sharded: publish hashed %d bytes, want %d", d, used)
	}
	before = wire.ChecksumBytes()
	for _, s := range ep.pool.shards {
		b := newShardBatch(s)
		s.service(<-s.ch, b)
		b.close()
	}
	if d := wire.ChecksumBytes() - before; d != 0 {
		t.Fatalf("sharded: shard encoders hashed %d bytes, want 0", d)
	}
	core.Release(m)
}

// TestBatchStreamDecodesToFrames is the batch framing property test: the
// byte stream a batch writes — coalesced runs and vectored frames
// interleaved — must decode through wire.FrameScanner into exactly the
// frames that were enqueued, in order, with valid checksums.
func TestBatchStreamDecodesToFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]int{
		{10},                     // single coalesced frame
		{100000},                 // single vectored frame
		{0, 1, 2, 3},             // tiny coalesced run, incl. empty payload
		{10, 8000, 20, 9000, 30}, // alternating small/large
		{coalesceThreshold, coalesceThreshold + 1}, // both sides of the cutoff
	}
	for c := 0; c < 4; c++ { // plus randomized batches
		sizes := make([]int, 1+rng.Intn(maxBatchFrames))
		for i := range sizes {
			sizes[i] = rng.Intn(3 * coalesceThreshold)
		}
		cases = append(cases, sizes)
	}

	for ci, sizes := range cases {
		var got bytes.Buffer
		pc := &pubConn{conn: captureConn{buf: &got}, stop: make(chan struct{})}
		b := newEgressBatch(pc)
		payloads := make([][]byte, len(sizes))
		for i, n := range sizes {
			p := make([]byte, n)
			rng.Read(p)
			payloads[i] = p
			b.add(frameItem{data: p}) // unstamped: the writer computes the CRC
		}
		if !b.flush() {
			t.Fatalf("case %d: flush failed", ci)
		}
		b.close()

		r := bytes.NewReader(got.Bytes())
		s := wire.NewFrameScanner(r, maxFrameSize)
		for i, p := range payloads {
			n, crc, err := s.Next()
			if err != nil {
				t.Fatalf("case %d frame %d: %v", ci, i, err)
			}
			if n != len(p) {
				t.Fatalf("case %d frame %d: length %d, want %d", ci, i, n, len(p))
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(r, body); err != nil {
				t.Fatalf("case %d frame %d payload: %v", ci, i, err)
			}
			if wire.Checksum(body) != crc {
				t.Fatalf("case %d frame %d: checksum mismatch", ci, i)
			}
			if !bytes.Equal(body, p) {
				t.Fatalf("case %d frame %d: payload differs", ci, i)
			}
		}
		if _, _, err := s.Next(); err != io.EOF {
			t.Fatalf("case %d: trailing bytes after last frame: %v", ci, err)
		}
		if s.SkippedBytes() != 0 {
			t.Fatalf("case %d: healthy batch stream skipped %d bytes", ci, s.SkippedBytes())
		}
	}
}

// TestFrameItemSize pins the queue entry at 72 bytes. The descriptor
// travels in it by value, and one more word measurably slows every TCP
// stream (tcp_4k_stream p50 +1% in paired runs, EXPERIMENTS.md).
func TestFrameItemSize(t *testing.T) {
	if n := unsafe.Sizeof(frameItem{}); n > 72 {
		t.Errorf("frameItem is %d bytes, want at most 72", n)
	}
}

// TestShmShareMintedAtWrite: an SFM publish to shm links mints no peer
// reference and hashes nothing — the write loop turns the item into a
// descriptor when it takes it — so an item that leaves the queue unsent,
// pushed out by a newer one or still queued at teardown, owns only its
// arena. The lease is long, so the reaper cannot be what empties the
// store.
func TestShmShareMintedAtWrite(t *testing.T) {
	requireShm(t)
	t.Setenv("ROSSF_SHM_DIR", t.TempDir())
	store, err := shm.NewStore(shm.Options{Dir: t.TempDir(), LeaseTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mgr := core.NewManager()
	mgr.SetBackingStore(store)
	ep := metricEndpoint(nil)
	for i := 0; i < 3; i++ {
		peer, gen, err := store.AcquirePeer(uint32(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		rd, err := shm.CreateQueue()
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		wr, err := shm.OpenQueue(rd.Name())
		if err != nil {
			t.Fatal(err)
		}
		conn, far := net.Pipe()
		defer far.Close()
		ep.att.conns = append(ep.att.conns, &pubConn{
			conn: conn,
			stop: make(chan struct{}),
			ch:   make(chan frameItem, 2), // no write loop: the queue only fills
			shm:  &shmSender{store: store, peer: peer, gen: gen, queue: wr},
		})
	}
	var first uint64
	for i := 0; i < 3; i++ { // the third pushes the first out of every queue
		img, err := core.NewIn[shardImgSF](mgr, 256)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			h, _, ok := core.SharedHandleOf(img, store)
			if !ok {
				t.Fatal("store-backed message has no shared slot")
			}
			first = h
		}
		shares, hashed := store.Shares(), wire.ChecksumBytes()
		if err := publishSFM(ep, img); err != nil {
			t.Fatal(err)
		}
		if n := store.Shares() - shares; n != 0 {
			t.Fatalf("publish %d minted %d peer references before any write", i, n)
		}
		if n := wire.ChecksumBytes() - hashed; n != 0 {
			t.Fatalf("publish %d hashed %d bytes for links that send descriptors", i, n)
		}
		core.Release(img) //nolint:errcheck // the queued items hold the arena now
	}
	if refs, owner := store.SlotRefs(first); refs != 0 || owner != 0 {
		t.Errorf("pushed-out message still referenced: refs=%d owner=%#x", refs, owner)
	}
	if store.Idle() {
		t.Fatal("two messages are queued, yet no slot is referenced")
	}
	for _, pc := range ep.att.conns {
		pc.teardown()
	}
	if !store.Idle() {
		t.Error("items queued at teardown kept their slots")
	}
}

// TestBatchStreamTagged: on an shm-negotiated connection the batch
// writes tagged frames — each decoded payload must lead with the tag
// byte and checksum over tag||body, whether coalesced or vectored.
func TestBatchStreamTagged(t *testing.T) {
	requireShm(t)
	// A tagged batch goes to the grant's frame queue and never to the
	// connection, which has no writer here to prove it.
	t.Setenv("ROSSF_SHM_DIR", t.TempDir())
	rd, err := shm.CreateQueue()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	wr, err := shm.OpenQueue(rd.Name())
	if err != nil {
		t.Fatal(err)
	}
	pc := &pubConn{
		stop: make(chan struct{}),
		shm:  &shmSender{queue: wr}, // the store is never touched
	}
	b := newEgressBatch(pc)
	desc := shm.Descriptor{SegID: 3, Gen: 7, Slot: 5, Length: 4096}
	bodies := [][]byte{
		desc.AppendTo(nil),               // encoded by the batch, coalesced
		bytes.Repeat([]byte{0x22}, 8192), // vectored
		{},                               // empty inline body
	}
	b.add(frameItem{desc: desc, tag: tagDescriptor})
	b.add(frameItem{data: bodies[1], tag: tagInline})
	b.add(frameItem{data: bodies[2]}) // an untagged item defaults to tagInline
	if !b.flush() {
		t.Fatal("flush failed")
	}
	b.close()
	wr.Close()
	var got bytes.Buffer
	if _, err := io.Copy(&got, rd); err != nil {
		t.Fatal(err)
	}

	wantTags := []byte{tagDescriptor, tagInline, tagInline}
	r := bytes.NewReader(got.Bytes())
	s := wire.NewFrameScanner(r, maxFrameSize)
	for i, body := range bodies {
		n, crc, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(body)+1 {
			t.Fatalf("frame %d: wire length %d, want %d (tag+body)", i, n, len(body)+1)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if payload[0] != wantTags[i] {
			t.Fatalf("frame %d: tag %#x, want %#x", i, payload[0], wantTags[i])
		}
		if wire.Checksum(payload) != crc {
			t.Fatalf("frame %d: crc does not cover tag||body", i)
		}
		if !bytes.Equal(payload[1:], body) {
			t.Fatalf("frame %d: body differs", i)
		}
	}
}

// TestBatchCoalescingCounts checks the egress instruments: one flush of
// several queued frames is one write, and the sub-threshold frames are
// counted as coalesced.
func TestBatchCoalescingCounts(t *testing.T) {
	reg := obs.NewRegistry()
	st := reg.Egress()
	pc := &pubConn{ep: metricEndpoint(reg), conn: discardConn{}, stop: make(chan struct{})}
	b := newEgressBatch(pc)
	small, large := make([]byte, 100), make([]byte, coalesceThreshold+1)
	for i := 0; i < 3; i++ {
		b.add(frameItem{data: small})
	}
	b.add(frameItem{data: large})
	if !b.flush() {
		t.Fatal("flush failed")
	}
	b.close()
	if w, f, c := st.Writes.Load(), st.Frames.Load(), st.Coalesced.Load(); w != 1 || f != 4 || c != 3 {
		t.Fatalf("writes=%d frames=%d coalesced=%d, want 1/4/3", w, f, c)
	}
	if fs := st.FramesPerWrite.Stats(); fs.Count != 1 || fs.Max != 4 {
		t.Fatalf("frames-per-write histogram = %+v, want one sample of 4", fs)
	}
}

// metricEndpoint is an endpoint whose node reports into reg.
func metricEndpoint(reg *obs.Registry) *pubEndpoint {
	return &pubEndpoint{node: &Node{metrics: reg}, att: &attachments{}}
}

// TestBatchedEgressZeroAllocs pins the fast-path cost contract: once a
// batch is warm, encoding queued SFM frames and writing them as a
// vectored write allocates nothing — with the instruments enabled, in
// every framing: plain, tagged (descriptors and inline copies), sparse,
// and a shard run written to a fresh and a just-migrated member.
func TestBatchedEgressZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	reg := obs.NewRegistry()
	small := bytes.Repeat([]byte{0xAB}, 1024)
	large := bytes.Repeat([]byte{0xCD}, 16*1024)
	smallCRC, largeCRC := wire.Checksum(small), wire.Checksum(large)
	plain := newEgressBatch(&pubConn{ep: metricEndpoint(reg), conn: discardConn{}, stop: make(chan struct{})})
	defer plain.close()

	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	tagged := newEgressBatch(&pubConn{ep: metricEndpoint(reg), stop: make(chan struct{}), shm: &shmSender{queue: devNull}})
	defer tagged.close()

	sparse := newEgressBatch(&pubConn{ep: metricEndpoint(reg), conn: discardConn{}, stop: make(chan struct{}), mask: goldenMask(t)})
	defer sparse.close()
	records := [][]byte{
		goldenRecord(1, []byte("cam0"), large),
		goldenRecord(2, bytes.Repeat([]byte{'n'}, 6000), small),
		small[:10], // too short to slice: a full-fallback frame
	}

	ep := metricEndpoint(reg)
	shard := &egressShard{ep: ep, stats: reg.EgressShard()}
	fresh := &pubConn{conn: discardConn{}, stop: make(chan struct{})}
	migrated := &pubConn{conn: discardConn{}, stop: make(chan struct{})}
	shard.members = []*pubConn{fresh, migrated}
	run := newShardBatch(shard)
	defer run.close()
	var seq uint64

	for _, c := range []struct {
		name string
		op   func() bool
	}{
		{"plain", func() bool {
			for j := 0; j < 6; j++ {
				plain.add(frameItem{data: small, crc: smallCRC, crcOK: true})
			}
			plain.add(frameItem{data: large, crc: largeCRC, crcOK: true})
			return plain.flush()
		}},
		{"tagged", func() bool {
			tagged.add(frameItem{desc: shm.Descriptor{SegID: 1, Slot: 2, Length: 1024}, tag: tagDescriptor})
			tagged.add(frameItem{data: small, tag: tagInline})
			tagged.add(frameItem{data: large})
			return tagged.flush()
		}},
		{"sparse", func() bool {
			for _, r := range records {
				sparse.add(frameItem{data: r})
			}
			return sparse.flush()
		}},
		{"shard run", func() bool {
			migrated.lastSeq = seq + 2 // its previous shard wrote the run's first two frames
			for j := 0; j < 6; j++ {
				seq++
				shard.seqs[run.n] = seq
				run.add(frameItem{data: small, crc: smallCRC, crcOK: true})
			}
			seq++
			shard.seqs[run.n] = seq
			run.add(frameItem{data: large, crc: largeCRC, crcOK: true})
			shard.flushRun(run)
			return true
		}},
	} {
		measure := func() int64 {
			res := testing.Benchmark(func(bb *testing.B) {
				bb.ReportAllocs()
				for i := 0; i < bb.N; i++ {
					if !c.op() {
						bb.Fatal("flush failed")
					}
				}
			})
			return res.AllocsPerOp()
		}
		// A stray GC or background goroutine can perturb a single run; take
		// the best of 3.
		allocs := measure()
		for i := 0; i < 2 && allocs > 0; i++ {
			if v := measure(); v < allocs {
				allocs = v
			}
		}
		if allocs != 0 {
			t.Errorf("%s: batched egress allocs/op = %d, want 0", c.name, allocs)
		}
	}
}

// TestScratchBufDecay is the regression test for the subscriber scratch
// buffer: one huge frame must no longer pin its storage for the life of
// the connection once traffic returns to small frames.
func TestScratchBufDecay(t *testing.T) {
	var s scratchBuf
	if got := len(s.take(100)); got != 100 {
		t.Fatalf("take(100) length = %d", got)
	}
	if c := cap(s.buf); c != scratchInitCap {
		t.Fatalf("initial capacity = %d, want %d", c, scratchInitCap)
	}

	// A 1 MiB frame grows the buffer...
	s.take(1 << 20)
	if c := cap(s.buf); c < 1<<20 {
		t.Fatalf("capacity after 1 MiB take = %d", c)
	}
	// ...and a long run of small frames releases it again.
	for i := 0; i < scratchShrinkAfter-1; i++ {
		s.take(256)
	}
	if c := cap(s.buf); c < 1<<20 {
		t.Fatalf("capacity decayed after only %d small takes", scratchShrinkAfter-1)
	}
	s.take(256)
	if c := cap(s.buf); c != scratchInitCap {
		t.Fatalf("capacity after decay = %d, want %d", c, scratchInitCap)
	}

	// Traffic that keeps returning to large frames must keep its storage:
	// every large take resets the small-run counter.
	s.take(1 << 20)
	for i := 0; i < 4*scratchShrinkAfter; i++ {
		s.take(100)
		if i%8 == 7 {
			s.take(1 << 19) // > cap/4: still a large frame for this buffer
		}
	}
	if c := cap(s.buf); c < 1<<20 {
		t.Fatalf("alternating traffic thrashed the buffer down to %d", c)
	}

	// Decay lands on the window's peak, not the floor, when the recent
	// frames are mid-sized.
	s2 := scratchBuf{}
	s2.take(1 << 20)
	for i := 0; i < scratchShrinkAfter; i++ {
		s2.take(50_000)
	}
	if c := cap(s2.buf); c != 50_000 {
		t.Fatalf("decayed capacity = %d, want the window peak 50000", c)
	}
}

// TestHeaderSizeBoundary exercises readHeader at the exact maxHeaderSize
// edge: a header of exactly the limit parses, one byte more is
// rejected, and a length with the top bit set is rejected as oversized
// rather than wrapping negative.
func TestHeaderSizeBoundary(t *testing.T) {
	// Exactly at the limit: one field padded so the body is
	// maxHeaderSize bytes.
	fieldLen := maxHeaderSize - 4
	body := make([]byte, 0, maxHeaderSize)
	body = binary.LittleEndian.AppendUint32(body, uint32(fieldLen))
	body = append(body, "k="...)
	body = append(body, bytes.Repeat([]byte{'a'}, fieldLen-2)...)

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	type result struct {
		fields map[string]string
		err    error
	}
	results := make(chan result, 1)
	go func() {
		f, err := readHeader(server)
		results <- result{f, err}
	}()
	var msg []byte
	msg = binary.LittleEndian.AppendUint32(msg, uint32(len(body)))
	msg = append(msg, body...)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-results:
		if res.err != nil {
			t.Fatalf("header of exactly maxHeaderSize rejected: %v", res.err)
		}
		if got := len(res.fields["k"]); got != fieldLen-2 {
			t.Fatalf("field length = %d, want %d", got, fieldLen-2)
		}
	case <-time.After(time.Second):
		t.Fatal("reader hung at the size boundary")
	}

	// One past the limit, and a top-bit-set length, are both rejected
	// before any body allocation.
	for _, size := range []uint32{maxHeaderSize + 1, 0xFFFFFFFF} {
		c2, s2 := net.Pipe()
		errs := make(chan error, 1)
		go func() {
			_, err := readHeader(s2)
			errs <- err
		}()
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], size)
		c2.Write(lenBuf[:])
		select {
		case err := <-errs:
			if err == nil {
				t.Fatalf("header size %d accepted", size)
			}
		case <-time.After(time.Second):
			t.Fatal("reader hung on oversized header")
		}
		c2.Close()
		s2.Close()
	}
}
