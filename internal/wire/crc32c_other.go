//go:build !amd64

package wire

// vectorCRCSupported is false off amd64: every input takes hash/crc32,
// which uses the CRC32 instructions on arm64.
func vectorCRCSupported() bool { return false }

func castagnoliVPCLMUL(crc uint32, p []byte) uint32 {
	panic("wire: no vector CRC kernel on this architecture")
}
