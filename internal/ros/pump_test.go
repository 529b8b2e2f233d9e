package ros

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/wire"
)

// pumpMsg is a minimal regular message for the ROS1 decoder.
type pumpMsg struct{ X uint64 }

func (*pumpMsg) ROSMessageType() string { return "test_msgs/Pump" }
func (*pumpMsg) ROSMD5Sum() string      { return "0123456789abcdef0123456789abcdef" }
func (*pumpMsg) SerializedSizeROS() int { return 8 }
func (m *pumpMsg) SerializeROS(w *wire.Writer) error {
	w.U64(m.X)
	return nil
}
func (m *pumpMsg) DeserializeROS(r *wire.Reader) error {
	m.X = r.U64()
	return r.Err()
}

// pumpCase is one decoder under the damage test: how it wants message
// seq encoded as a frame payload, a payload that passes the CRC but
// fails the decoder's own validation (nil when it has none), and the
// sequence numbers it delivered.
type pumpCase struct {
	name      string
	maxLen    int
	dec       frameDecoder
	enc       func(seq uint64) []byte
	malformed []byte
	got       *[]uint64
}

func pumpCases(t *testing.T, sub *Subscriber) []pumpCase {
	arena := func(seq uint64) []byte {
		m, err := core.NewWithCapacity[queueMsg](256)
		if err != nil {
			t.Fatal(err)
		}
		defer core.Release(m)
		m.X = seq
		b, err := core.Bytes(m)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), b...)
	}
	seqOf := func(frame []byte) uint64 {
		buf := core.Default().GetBuffer(len(frame))
		copy(buf.Bytes(), frame)
		m, err := core.Adopt[queueMsg](buf, len(frame))
		if err != nil {
			t.Fatalf("delivered frame is not a message image: %v", err)
		}
		defer core.Release(m)
		return m.X
	}
	tagged := func(tag byte, body []byte) []byte { return append([]byte{tag}, body...) }
	sparse := func(seq uint64) []byte {
		p := arena(seq)
		return append(fieldwire.AppendFullTable(nil, len(p)), p...)
	}
	// A sparse header claiming ranges the payload does not hold.
	badTable := fieldwire.AppendFullTable(nil, 1<<20)

	layout, err := core.LayoutOf[queueMsg]()
	if err != nil {
		t.Fatal(err)
	}
	reply := map[string]string{hdrFormat: formatSFM, hdrEndian: nativeEndianName(core.NativeLittleEndian())}
	var cases []pumpCase
	add := func(name string, maxLen int, mk func(got *[]uint64) frameDecoder, enc func(uint64) []byte, malformed []byte) {
		got := new([]uint64)
		cases = append(cases, pumpCase{name, maxLen, mk(got), enc, malformed, got})
	}
	sfm := func(got *[]uint64) decoderSet {
		return (&sfmRuntime[queueMsg]{sub: sub, layout: layout, mgr: core.NewManager(),
			cb: func(m *queueMsg) { *got = append(*got, m.X) }}).decoders()
	}
	raw := func(got *[]uint64) decoderSet {
		return rawDecoders(sub, func(rm RawMessage) { *got = append(*got, seqOf(rm.Frame)) })
	}

	add("ros1 in place", maxFrameSize, func(got *[]uint64) frameDecoder {
		return (&ros1Runtime[pumpMsg]{sub: sub, cb: func(m *pumpMsg) { *got = append(*got, m.X) }}).decoders().plain(reply)
	}, func(seq uint64) []byte { return binary.LittleEndian.AppendUint64(nil, seq) }, nil)
	add("raw in place", maxFrameSize, func(got *[]uint64) frameDecoder {
		return raw(got).plain(reply)
	}, arena, nil)
	add("sfm into arena", maxFrameSize, func(got *[]uint64) frameDecoder {
		return sfm(got).plain(reply)
	}, arena, nil)
	add("sfm tagged", maxTaggedFrameSize, func(got *[]uint64) frameDecoder {
		return sfm(got).shm(nil) // no descriptor frames in the stream, so no mapper
	}, func(seq uint64) []byte { return tagged(tagInline, arena(seq)) }, tagged(0x7f, arena(99)))
	add("sparse into arena", maxFrameSize, func(got *[]uint64) frameDecoder {
		return sfm(got).sparse(reply, newSubConn())
	}, sparse, badTable)
	add("sparse into scratch", maxFrameSize, func(got *[]uint64) frameDecoder {
		return raw(got).sparse(reply, newSubConn())
	}, sparse, badTable)
	return cases
}

// TestPumpDamageEquivalence feeds the same damaged stream through every
// decoder the pump can be parameterised with: a flipped payload bit,
// garbage between frames, a length above the cap, a frame the decoder
// itself must refuse (an unknown tag, a malformed range table — a
// second checksum failure for decoders with no validation of their
// own), and a tail cut off inside a payload or inside a header. Every
// decoder must account for the damage identically, deliver exactly the
// two intact messages, and hand the batch buffer back on the way out.
func TestPumpDamageEquivalence(t *testing.T) {
	garbage := bytes.Repeat([]byte{0xEE}, 37)
	for _, tail := range []string{"inside a payload", "inside a header"} {
		sub := &Subscriber{node: &Node{}, sfm: true}
		for _, c := range pumpCases(t, sub) {
			t.Run(c.name+", tail cut "+tail, func(t *testing.T) {
				flipped := wire.AppendFrame(nil, c.enc(2))
				flipped[len(flipped)-1] ^= 0x10
				refused := wire.AppendFrame(nil, c.enc(4))
				refused[len(refused)-2] ^= 0x01
				if c.malformed != nil {
					refused = wire.AppendFrame(nil, c.malformed)
				}
				var oversized [wire.FrameHeaderSize]byte
				wire.PutFrameHeader(oversized[:], c.maxLen+1, 0)
				last := wire.AppendFrame(nil, c.enc(6))
				cut := len(last) - 3
				if tail == "inside a header" {
					cut = 5
				}

				var stream []byte
				stream = wire.AppendFrame(stream, c.enc(1))
				stream = append(stream, flipped...)
				stream = append(stream, garbage...)
				stream = append(stream, oversized[:]...)
				stream = wire.AppendFrame(stream, c.enc(3))
				stream = append(stream, refused...)
				stream = append(stream, last[:cut]...)

				corrupt0, resync0 := sub.CorruptFrames(), sub.ResyncedBytes()
				rx := newPump(bytes.NewReader(stream), c.maxLen, sub)
				if err := rx.run(c.dec); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("pump exit = %v, want io.ErrUnexpectedEOF", err)
				}
				if got := *c.got; len(got) != 2 || got[0] != 1 || got[1] != 3 {
					t.Errorf("delivered %v, want exactly the intact messages [1 3]", got)
				}
				if d := sub.CorruptFrames() - corrupt0; d != 2 {
					t.Errorf("CorruptFrames advanced by %d, want 2", d)
				}
				if d, want := sub.ResyncedBytes()-resync0, uint64(len(garbage)+len(oversized)); d != want {
					t.Errorf("ResyncedBytes advanced by %d, want %d", d, want)
				}
				// A tail cut inside a header leaves its bytes buffered; only
				// the release on the way out can have dropped them.
				if n := rx.ir.Buffered(); n != 0 {
					t.Errorf("%d bytes still buffered: the batch buffer was not released", n)
				}
			})
		}
	}
}
