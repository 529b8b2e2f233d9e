package shm

import (
	"encoding/binary"
	"fmt"
)

// Descriptor addresses one published message inside a shared segment.
// It is what actually crosses the connection when a topic runs over the
// shm transport: 24 bytes instead of the payload. The generation makes
// descriptors self-invalidating — a slot reused after all references
// were released (or reaped) carries a new generation, so a stale
// descriptor can never alias a newer message.
type Descriptor struct {
	SegID  uint64 // segment file suffix under the store prefix
	Gen    uint64 // slot generation at share time
	Slot   uint32 // slot index within the segment
	Length uint32 // payload bytes used within the slot
}

// DescriptorSize is the encoded size of a Descriptor.
const DescriptorSize = 24

// AppendTo appends the little-endian encoding of d to dst.
func (d Descriptor) AppendTo(dst []byte) []byte {
	var b [DescriptorSize]byte
	binary.LittleEndian.PutUint64(b[0:], d.SegID)
	binary.LittleEndian.PutUint64(b[8:], d.Gen)
	binary.LittleEndian.PutUint32(b[16:], d.Slot)
	binary.LittleEndian.PutUint32(b[20:], d.Length)
	return append(dst, b[:]...)
}

// ParseDescriptor decodes a Descriptor from b.
func ParseDescriptor(b []byte) (Descriptor, error) {
	if len(b) != DescriptorSize {
		return Descriptor{}, fmt.Errorf("shm: descriptor is %d bytes, want %d", len(b), DescriptorSize)
	}
	return Descriptor{
		SegID:  binary.LittleEndian.Uint64(b[0:]),
		Gen:    binary.LittleEndian.Uint64(b[8:]),
		Slot:   binary.LittleEndian.Uint32(b[16:]),
		Length: binary.LittleEndian.Uint32(b[20:]),
	}, nil
}
