package ros

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"testing"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/msgtest"
	"rossf/internal/obs"
	"rossf/internal/shm"
)

// goldenEgress is the SHA-256 of every byte stream TestGoldenEgressBytes
// writes. The constants were taken by running this file's inputs through
// the encoders of commit 8bc5af3 — egressBatch.flush for the plain and
// tagged arms, sparseBatch.flush for the sparse arm, and
// shardBatch.encode/writeTo plus egressShard.deliverTargeted for the
// shard arm, driven by the same egressShard.service calls — and printing
// the digests. That commit had one hand-written encoder per arm; the
// streams here must not tell the single encoder that replaced them from
// the three. The sparse arm's records are built in native byte order,
// and the constants were taken on a little-endian host.
var goldenEgress = map[string]string{
	"plain":          "1d3e45226a319dd593b3d09c7cd5322e725ca9ffb504edce2aad52cc9ee379ee",
	"tagged":         "2f78d06f796ed005f0c94474f98ce5e74eb3b7209b1dd418ed51bd90a89360ef",
	"sparse":         "81f5f2e30167dc9ad5b075d4b287f94dbd88ca3cd18cdc59868a5473029e3538",
	"shard fresh":    "a64f5d5dca0e6161694fe0aaefcc6d9e83983b7eced6f1113cfc557cc1ca5b64",
	"shard migrated": "05a72c787c8b3d3d05b1dcbdb7f052e527874dc6bec9eade224c0988070344dd",
}

// goldenItem returns an unstamped item carrying n seeded bytes.
func goldenItem(rng *rand.Rand, n int) frameItem {
	p := make([]byte, n)
	rng.Read(p)
	return frameItem{data: p}
}

// stamped marks an item with a publish-time checksum. The value is
// deliberately not the payload's CRC: a stream that carries it proves the
// encoder reused the stamp instead of hashing again.
func stamped(it frameItem, crc uint32) frameItem {
	it.crc, it.crcOK = crc, true
	return it
}

// goldenRecord lays out a record of the goldenMask type: an 8-byte seq,
// then a string and a byte-vector descriptor (count, offset relative to
// the descriptor), then the two payloads.
func goldenRecord(seq uint64, name, data []byte) []byte {
	const skel = 24
	p := make([]byte, skel, skel+len(name)+len(data))
	binary.NativeEndian.PutUint64(p[0:], seq)
	binary.NativeEndian.PutUint32(p[8:], uint32(len(name)))
	binary.NativeEndian.PutUint32(p[12:], uint32(skel-8))
	binary.NativeEndian.PutUint32(p[16:], uint32(len(data)))
	binary.NativeEndian.PutUint32(p[20:], uint32(skel+len(name)-16))
	p = append(p, name...)
	return append(p, data...)
}

// goldenMask resolves {seq, name} against a hand-built wire map of the
// goldenRecord layout.
func goldenMask(t *testing.T) *fieldwire.Mask {
	t.Helper()
	m := &fieldwire.Map{Type: "golden/Record", Size: 24, Fields: []fieldwire.Node{
		{ID: 1, Name: "seq", Off: 0, Len: 8, Kind: fieldwire.KScalar},
		{ID: 2, Name: "name", Off: 8, Len: 8, Kind: fieldwire.KString},
		{ID: 3, Name: "data", Off: 16, Len: 8, Kind: fieldwire.KVector, ElemSize: 1},
	}}
	mask, err := m.Resolve([]string{"seq", "name"})
	if err != nil {
		t.Fatal(err)
	}
	return mask
}

// flushBatches pushes each batch through one link's encoder.
func flushBatches(t *testing.T, pc *pubConn, batches [][]frameItem) {
	t.Helper()
	b := newEgressBatch(pc)
	defer b.close()
	for i, items := range batches {
		for _, it := range items {
			b.add(it)
		}
		if !b.flush() {
			t.Fatalf("batch %d: flush failed", i)
		}
	}
}

// TestGoldenEgressBytes pins the send side's wire bytes: a fixed, seeded
// set of batches through every framing and every delivery path must
// produce streams whose digests match goldenEgress.
func TestGoldenEgressBytes(t *testing.T) {
	if !core.NativeLittleEndian() {
		msgtest.NotVerified(t, "the digests were taken on a little-endian host")
	}
	rng := rand.New(rand.NewSource(27))
	got := map[string][]byte{}

	// Plain: a coalesced run, vectored frames only, both sides of
	// coalesceThreshold, and alternating sizes, with stamps mixed in.
	var plain bytes.Buffer
	flushBatches(t, &pubConn{conn: captureConn{buf: &plain}, stop: make(chan struct{})}, [][]frameItem{
		{goldenItem(rng, 0), goldenItem(rng, 1), stamped(goldenItem(rng, 100), 0x5eed0001), goldenItem(rng, 1000)},
		{goldenItem(rng, 5000), stamped(goldenItem(rng, 100000), 0x5eed0002)},
		{goldenItem(rng, coalesceThreshold), goldenItem(rng, coalesceThreshold+1)},
		{goldenItem(rng, 10), goldenItem(rng, 8000), goldenItem(rng, 20), goldenItem(rng, 9000), goldenItem(rng, 30)},
	})
	got["plain"] = plain.Bytes()

	// Tagged: descriptors, inline copies (coalesced, vectored, stamped,
	// empty) and untagged latched items, written to a pipe as an shm
	// link writes to its frame queue.
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	tagged := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(rd)
		tagged <- b
	}()
	inline := func(n int) frameItem {
		it := goldenItem(rng, n)
		it.tag = tagInline
		return it
	}
	flushBatches(t, &pubConn{stop: make(chan struct{}), shm: &shmSender{queue: wr}}, [][]frameItem{
		{
			{desc: shm.Descriptor{SegID: 3, Gen: 7, Slot: 5, Length: 4096}, tag: tagDescriptor},
			inline(8192),
			stamped(inline(300), 0x5eed0003),
			goldenItem(rng, 200),
			goldenItem(rng, 6000),
			inline(0),
		},
		{{desc: shm.Descriptor{SegID: 9, Gen: 1, Slot: 40, Length: 1 << 20}, tag: tagDescriptor}},
	})
	wr.Close()
	got["tagged"] = <-tagged
	rd.Close()

	// Sparse: sliced records (a small table run and a range above
	// coalesceThreshold; a stamp the sparse payload cannot use) and
	// full-fallback ones (too short to slice, slicing saves nothing, a
	// descriptor pointing outside the record).
	badDesc := goldenRecord(6, []byte("bad"), bytes.Repeat([]byte{0x66}, 9000))
	binary.NativeEndian.PutUint32(badDesc[12:], 1<<20)
	record := func(seq uint64, name string, data int) frameItem {
		it := goldenItem(rng, data)
		it.data = goldenRecord(seq, []byte(name), it.data)
		return it
	}
	var sparse bytes.Buffer
	flushBatches(t, &pubConn{conn: captureConn{buf: &sparse}, stop: make(chan struct{}), mask: goldenMask(t)}, [][]frameItem{
		{
			record(1, "cam0", 10000),
			record(2, string(bytes.Repeat([]byte{'n'}, 6000)), 100),
			stamped(record(3, "x", 5000), 0x5eed0004),
		},
		{goldenItem(rng, 10), record(5, "ab", 0), {data: badDesc}},
	})
	got["sparse"] = sparse.Bytes()

	// Shard: one run encoded once for a fresh member and for one that
	// just migrated in after seeing seqs 1–3 (its suffix starts inside a
	// coalesced run), then one targeted latch frame to each.
	reg := obs.NewRegistry()
	s := &egressShard{
		ep:    metricEndpoint(reg),
		ch:    make(chan shardItem, 16),
		stop:  make(chan struct{}),
		stats: reg.EgressShard(),
	}
	var fresh, migrated bytes.Buffer
	freshC := &pubConn{conn: captureConn{buf: &fresh}, stop: make(chan struct{})}
	migratedC := &pubConn{conn: captureConn{buf: &migrated}, stop: make(chan struct{}), lastSeq: 3}
	s.members = []*pubConn{freshC, migratedC}
	b := newShardBatch(s)
	defer b.close()
	run := []frameItem{
		goldenItem(rng, 96), goldenItem(rng, 6000), goldenItem(rng, 0),
		stamped(goldenItem(rng, coalesceThreshold), 0x5eed0005), goldenItem(rng, coalesceThreshold+1), goldenItem(rng, 200),
	}
	for i, it := range run[1:] {
		s.ch <- shardItem{seq: uint64(i + 2), it: it}
	}
	s.service(shardItem{seq: 1, it: run[0]}, b)
	s.service(shardItem{only: freshC, it: goldenItem(rng, 3000)}, b)
	s.service(shardItem{only: migratedC, it: goldenItem(rng, 7000)}, b)
	got["shard fresh"] = fresh.Bytes()
	got["shard migrated"] = migrated.Bytes()

	for name, want := range goldenEgress {
		sum := sha256.Sum256(got[name])
		if h := hex.EncodeToString(sum[:]); h != want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", name, len(got[name]), h, want)
		}
	}
}
