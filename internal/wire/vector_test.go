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
