package ros

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Connection-header keys, following TCPROS conventions with two
// additions: "format" selects the wire regime (ros1 or sfm) and "endian"
// carries the publisher's byte order for SFM frames (§4.4.1).
const (
	hdrTopic    = "topic"
	hdrType     = "type"
	hdrMD5      = "md5sum"
	hdrCallerID = "callerid"
	hdrFormat   = "format"
	hdrEndian   = "endian"
	hdrError    = "error"

	formatROS1 = "ros1"
	formatSFM  = "sfm"

	endianLittle = "little"
	endianBig    = "big"
)

// maxHeaderSize bounds connection headers; real TCPROS headers are tiny.
const maxHeaderSize = 1 << 16

// maxFrameSize bounds message frames on plain TCP connections (64 MiB,
// the largest pooled arena class). The tight bound is what keeps
// corrupted length fields cheap on lossy links: a damaged header
// claiming more than the cap is skipped by magic-rescan over already
// buffered bytes, instead of stalling the reader on gigabytes that
// will never arrive.
const maxFrameSize = 1 << 26

// MaxTCPFrameBytes is maxFrameSize for callers that must know which
// messages a plain TCP link cannot carry (the IPC benchmark's matrix).
const MaxTCPFrameBytes = maxFrameSize

// maxTaggedFrameSize bounds frames on shm-negotiated connections: one
// transport tag byte plus the shared-memory transport's message cap.
// Any message that can travel as a descriptor must also survive an
// inline trip on the same connection (a transient per-message
// fallback), so this cap must match shm.MaxMessageBytes — and these
// links are same-machine loopback, where a corrupted length field is
// not a realistic failure, so the loose bound costs nothing. The egress
// batch refuses a message above maxFrameSize on a plain TCP link (a
// remote peer); that cross-machine path is the TZC roadmap item.
const maxTaggedFrameSize = shm.MaxMessageBytes + 1

// ErrHandshake reports a connection-header negotiation failure.
var ErrHandshake = errors.New("ros: handshake failed")

const handshakeTimeout = 5 * time.Second

// nowPlusHandshake returns the deadline for a handshake exchange.
func nowPlusHandshake() time.Time { return time.Now().Add(handshakeTimeout) }

// writeHeader sends a TCPROS-style connection header: u32 total size,
// then per field u32 length + "key=value". Encoding lives in
// internal/wire so the codec is shared and fuzzable.
func writeHeader(conn net.Conn, fields map[string]string) error {
	_, err := conn.Write(wire.AppendHeader(nil, fields))
	return err
}

// readHeader receives a TCPROS-style connection header.
func readHeader(conn net.Conn) (map[string]string, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	// Compare before the int conversion: a length with the top bit set
	// must be rejected as oversized, not wrapped negative.
	size := binary.LittleEndian.Uint32(lenBuf[:])
	if size > maxHeaderSize {
		return nil, fmt.Errorf("%w: header size %d exceeds limit", ErrHandshake, size)
	}
	body := make([]byte, int(size))
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	fields, err := wire.ParseHeader(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return fields, nil
}

// errRefused reports a peer that answered the handshake with an error
// header (type, md5, or format mismatch): redialing cannot fix it.
var errRefused = fmt.Errorf("%w: refused by peer", ErrHandshake)

// exchange runs the dialing half of a handshake: send the request
// header, return the peer's reply.
func exchange(conn net.Conn, request map[string]string) (map[string]string, error) {
	conn.SetDeadline(nowPlusHandshake())
	if err := writeHeader(conn, request); err != nil {
		return nil, err
	}
	reply, err := readHeader(conn)
	if err != nil {
		return nil, err
	}
	if msg, bad := reply[hdrError]; bad {
		return nil, fmt.Errorf("%w: %s", errRefused, msg)
	}
	conn.SetDeadline(time.Time{})
	return reply, nil
}

// refuse answers a handshake with an error header.
func refuse(conn net.Conn, msg string) error {
	writeHeader(conn, map[string]string{hdrError: msg}) //nolint:errcheck // the connection is being dropped
	return fmt.Errorf("%w: %s", ErrHandshake, msg)
}

// writeFrame sends one checked message frame: a wire.FrameMagic header
// carrying the payload length and CRC-32C, then the payload itself, as
// a single vectored write — header and payload reach the socket in one
// syscall, and a peer reset can never land between them. The payload is
// written directly from its backing storage (an arena, for SFM
// messages) — the checksum costs one pass over the bytes but no copy,
// preserving the serialization-free property. A payload above
// maxFrameSize is refused before any byte of it is written: the
// receiver would skip it as stream damage and never answer it.
func writeFrame(conn net.Conn, payload []byte) error {
	if len(payload) > maxFrameSize {
		return fmt.Errorf("ros: frame of %d bytes exceeds the frame cap (%d bytes)", len(payload), maxFrameSize)
	}
	return wire.WriteFrame(conn, payload, wire.Checksum(payload))
}

// formatName returns the wire regime header value.
func formatName(sfm bool) string {
	if sfm {
		return formatSFM
	}
	return formatROS1
}

// nativeEndianName returns this process's byte order header value.
func nativeEndianName(little bool) string {
	if little {
		return endianLittle
	}
	return endianBig
}
