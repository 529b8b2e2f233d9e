package wire

import (
	"bytes"
	"io"
	"testing"
)

// TestWriteFrameMatchesAppendFrame: the vectored writer must put the
// exact same bytes on the wire as the contiguous encoder.
func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, []byte("vectored"), bytes.Repeat([]byte{0xCD}, 8191)}
	for _, p := range payloads {
		want := AppendFrame(nil, p)
		var got bytes.Buffer
		if err := WriteFrame(&got, p, Checksum(p)); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("WriteFrame(%d bytes) wrote %x, want %x", len(p), got.Bytes(), want)
		}
	}
}

// TestAppendFrameHeaderRoundTrip: a stream assembled from
// AppendFrameHeader + payload spans must decode through FrameScanner
// into the original frames.
func TestAppendFrameHeaderRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte{7}, 5000), []byte("tail")}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrameHeader(stream, len(p), Checksum(p))
		stream = append(stream, p...)
	}
	r := bytes.NewReader(stream)
	s := NewFrameScanner(r, 1<<20)
	for i, p := range payloads {
		n, crc, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(p) {
			t.Fatalf("frame %d: length %d, want %d", i, n, len(p))
		}
		got := make([]byte, n)
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("frame %d payload: %v", i, err)
		}
		if !bytes.Equal(got, p) || Checksum(got) != crc {
			t.Fatalf("frame %d: payload/crc mismatch", i)
		}
	}
	if s.SkippedBytes() != 0 {
		t.Errorf("healthy stream skipped %d bytes", s.SkippedBytes())
	}
}

// TestAppendTaggedFrameHeaderRoundTrip: tagged headers announce
// bodyLen+1, carry the tag contiguously after the header, and the crc
// covers tag||body.
func TestAppendTaggedFrameHeaderRoundTrip(t *testing.T) {
	body := []byte("tagged-body")
	const tag = 0x02
	crc := Checksum2([]byte{tag}, body)

	var stream []byte
	stream = AppendTaggedFrameHeader(stream, tag, len(body), crc)
	stream = append(stream, body...)

	// Must equal the unvectored tagged encoding: header(len+1, crc) ||
	// tag || body.
	var want []byte
	want = AppendFrameHeader(want, len(body)+1, crc)
	want = append(want, tag)
	want = append(want, body...)
	if !bytes.Equal(stream, want) {
		t.Fatalf("tagged frame bytes = %x, want %x", stream, want)
	}

	s := NewFrameScanner(bytes.NewReader(stream), 1<<20)
	n, gotCRC, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(body)+1 || gotCRC != crc {
		t.Fatalf("scanner returned (%d, %08x), want (%d, %08x)", n, gotCRC, len(body)+1, crc)
	}
	payload := stream[FrameHeaderSize:]
	if payload[0] != tag {
		t.Fatalf("tag byte = %#x, want %#x", payload[0], tag)
	}
	if Checksum(payload) != crc {
		t.Fatal("crc does not cover tag||body")
	}
}

// TestChecksumBytesAccounting: the hashes-once test hook must count
// exactly the bytes fed to Checksum and Checksum2.
func TestChecksumBytesAccounting(t *testing.T) {
	before := ChecksumBytes()
	Checksum(make([]byte, 100))
	Checksum2(make([]byte, 1), make([]byte, 50))
	if d := ChecksumBytes() - before; d != 151 {
		t.Fatalf("ChecksumBytes delta = %d, want 151", d)
	}
}
