package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
)

// Transport framing with corruption detection. Every message frame on a
// topic or service connection is preceded by a fixed header:
//
//	offset 0  u32  magic  ("RSFM", little-endian)
//	offset 4  u32  payload length
//	offset 8  u32  CRC-32C (Castagnoli) of the payload
//
// The magic lets a receiver resynchronize after the stream has been
// damaged (bytes lost or a length field corrupted): it slides a
// header-sized window byte by byte until a plausible header reappears.
// The checksum rejects payload corruption; CRC-32C is used because it
// has hardware support on both amd64 and arm64, so the cost on the
// serialization-free hot path stays small relative to the socket write.
// Checksum, Checksum2 and ChecksumUpdate are the only CRC sites: on an
// amd64 CPU with AVX-512 and VPCLMULQDQ they fold 256 bytes per loop
// iteration with carry-less multiplies (crc32c_amd64.s, chosen once at
// init from CPUID), inputs under 256 bytes and tails under 64 stay on
// hash/crc32, and every other host, arm64 included, uses hash/crc32
// throughout. Either way the CRC is the same.

// FrameMagic marks the start of every checked frame ("RSFM" as a
// little-endian u32).
const FrameMagic uint32 = 'R' | 'S'<<8 | 'F'<<16 | 'M'<<24

// FrameHeaderSize is the fixed byte length of a frame header.
const FrameHeaderSize = 12

// ErrCorruptFrame reports a payload whose checksum did not match its
// header.
var ErrCorruptFrame = errors.New("wire: corrupt frame")

// ErrFrameTooLarge reports a header announcing a payload beyond the
// receiver's limit.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// castagnoli is the CRC-32C table (hardware-accelerated where
// available).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumBytes counts every byte fed through Checksum/Checksum2. It
// exists so tests can pin the fan-out hashes-once property (an
// N-subscriber publish must hash the arena once, not N times); one
// atomic add per call is noise next to the hash itself.
var checksumBytes atomic.Uint64

// ChecksumBytes reports the total payload bytes hashed by this process
// so far — a test observability hook, not a performance metric.
func ChecksumBytes() uint64 { return checksumBytes.Load() }

// vectorCRC selects the folding kernel (crc32c_amd64.s) for inputs of
// at least vectorCRCMin bytes. It is fixed at init from the CPU; tests
// clear it to run the hash/crc32 path on the same host.
var vectorCRC = vectorCRCSupported()

// vectorCRCMin is the shortest input the folding kernel takes: its
// four 64-byte accumulators. The kernel is already ahead of hash/crc32
// there (BenchmarkChecksum: ~33 vs ~45 ns at 256 bytes), so the
// cut-over is the kernel's floor.
const vectorCRCMin = 256

// castagnoliUpdate extends crc over p: the folding kernel takes the
// leading multiple of 64 bytes where the CPU has it, hash/crc32 the
// rest (and everything on other hosts).
func castagnoliUpdate(crc uint32, p []byte) uint32 {
	if vectorCRC && len(p) >= vectorCRCMin {
		n := len(p) &^ 63
		crc = ^castagnoliVPCLMUL(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, castagnoli, p)
}

// Checksum returns the CRC-32C of the payload.
func Checksum(payload []byte) uint32 {
	checksumBytes.Add(uint64(len(payload)))
	return castagnoliUpdate(0, payload)
}

// Checksum2 returns the CRC-32C of the concatenation a||b without
// joining them — used for tagged frames, where a one-byte transport tag
// precedes a payload that must not be copied just to checksum it. An
// empty a (a plain frame's prefix) costs nothing.
func Checksum2(a, b []byte) uint32 {
	checksumBytes.Add(uint64(len(a) + len(b)))
	var crc uint32
	if len(a) > 0 {
		crc = castagnoliUpdate(0, a)
	}
	return castagnoliUpdate(crc, b)
}

// ChecksumUpdate extends a CRC-32C state with more payload bytes:
// ChecksumUpdate(Checksum(a), b) == Checksum(a||b). It exists for
// frames assembled from several non-contiguous spans (the sparse
// field-wire encoding), where the concatenation never materializes.
func ChecksumUpdate(crc uint32, p []byte) uint32 {
	checksumBytes.Add(uint64(len(p)))
	return castagnoliUpdate(crc, p)
}

// PutFrameHeader encodes a frame header into hdr, which must be at
// least FrameHeaderSize bytes.
func PutFrameHeader(hdr []byte, payloadLen int, crc uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], FrameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payloadLen))
	binary.LittleEndian.PutUint32(hdr[8:12], crc)
}

// AppendFrame appends a complete checked frame (header + payload) to
// dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(hdr[:], len(payload), Checksum(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// AppendFrameHeader appends the FrameHeaderSize-byte header of a frame
// whose payload is payloadLen bytes with checksum crc. Callers append
// into reusable storage (a batch's header scratch, a stack array) and
// ship the payload separately as its own write vector.
func AppendFrameHeader(dst []byte, payloadLen int, crc uint32) []byte {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(hdr[:], payloadLen, crc)
	return append(dst, hdr[:]...)
}

// FrameVectors returns the wire spans of one checked frame — the
// header, encoded into hdrBuf's storage, then the payload — ready for a
// single vectored write. hdrBuf must have FrameHeaderSize bytes of
// capacity (its length is ignored).
func FrameVectors(hdrBuf, payload []byte, crc uint32) net.Buffers {
	return net.Buffers{AppendFrameHeader(hdrBuf[:0], len(payload), crc), payload}
}

// WriteFrame writes one checked frame (header then payload) to w as a
// single vectored write where w supports writev (a *net.TCPConn does),
// so a peer reset can never land between a half-written header and its
// payload, and the header costs no extra syscall. Writers without
// vectored support degrade to sequential writes inside net.Buffers.
func WriteFrame(w io.Writer, payload []byte, crc uint32) error {
	var hdr [FrameHeaderSize]byte
	bufs := FrameVectors(hdr[:], payload, crc)
	_, err := bufs.WriteTo(w)
	return err
}

// FrameScanner reads checked frame headers from a stream, sliding past
// damage to find the next valid header. It buffers only the header
// window: after Next returns, the payload is the next payloadLen bytes
// of the underlying reader, so callers read it into storage of their
// choosing (an arena buffer, a scratch slice) and verify it with
// Checksum against the returned crc — the scanner itself never copies
// payload bytes.
type FrameScanner struct {
	r       io.Reader
	maxLen  int
	hdr     [FrameHeaderSize]byte
	have    int
	skipped uint64
}

// NewFrameScanner wraps a stream. Headers announcing payloads larger
// than maxLen are treated as damage and skipped.
func NewFrameScanner(r io.Reader, maxLen int) *FrameScanner {
	return &FrameScanner{r: r, maxLen: maxLen}
}

// SkippedBytes reports how many bytes have been discarded while
// resynchronizing — zero on a healthy stream.
func (s *FrameScanner) SkippedBytes() uint64 { return s.skipped }

// Next locates the next plausible frame header and returns its payload
// length and expected checksum. A header is plausible when the magic
// matches and the length is within bounds; bytes failing that test are
// dropped one at a time (reject-and-resync). Errors are those of the
// underlying reader (io.EOF at a clean frame boundary,
// io.ErrUnexpectedEOF inside a header).
func (s *FrameScanner) Next() (payloadLen int, crc uint32, err error) {
	for {
		if s.have < FrameHeaderSize {
			n, err := io.ReadFull(s.r, s.hdr[s.have:])
			s.have += n
			if err != nil {
				if s.have > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, 0, err
			}
		}
		if binary.LittleEndian.Uint32(s.hdr[0:4]) == FrameMagic {
			length := binary.LittleEndian.Uint32(s.hdr[4:8])
			if int64(length) <= int64(s.maxLen) {
				s.have = 0
				return int(length), binary.LittleEndian.Uint32(s.hdr[8:12]), nil
			}
		}
		copy(s.hdr[:], s.hdr[1:])
		s.have--
		s.skipped++
	}
}
