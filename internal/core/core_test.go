package core

import (
	"bytes"
	"errors"
	"testing"

	"rossf/internal/msgtest"
)

// testImage mirrors the paper's simplified Image message (Fig. 1):
// string encoding, uint32 height/width, uint8[] data.
type testImage struct {
	Encoding String
	Height   uint32
	Width    uint32
	Data     Vector[uint8]
}

func newTestImage(t *testing.T) *testImage {
	t.Helper()
	img, err := NewWithCapacity[testImage](1 << 16)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return img
}

func TestNewStartsAllocatedWithOneRef(t *testing.T) {
	img := newTestImage(t)
	defer Release(img)

	st, err := StateOf(img)
	if err != nil {
		t.Fatalf("StateOf: %v", err)
	}
	if st != StateAllocated {
		t.Errorf("state = %v, want Allocated", st)
	}
	n, err := RefCountOf(img)
	if err != nil {
		t.Fatalf("RefCountOf: %v", err)
	}
	if n != 1 {
		t.Errorf("refs = %d, want 1", n)
	}
}

func TestFieldWritesLandInWireBytes(t *testing.T) {
	img := newTestImage(t)
	defer Release(img)

	img.Height = 10
	img.Width = 12
	if err := img.Encoding.Set("rgb8"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := img.Data.Resize(300); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	for i := range img.Data.Slice() {
		img.Data.Slice()[i] = byte(i % 251)
	}

	wire, err := Bytes(img)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	if got := img.Encoding.Get(); got != "rgb8" {
		t.Errorf("Encoding = %q, want rgb8", got)
	}
	if img.Data.Len() != 300 {
		t.Errorf("Data.Len = %d, want 300", img.Data.Len())
	}
	// The payload must physically live inside the wire view.
	if !bytes.Contains(wire, []byte("rgb8\x00")) {
		t.Error("wire bytes do not contain the string payload")
	}
}

// TestFig7Layout pins the exact memory layout of the paper's Fig. 7 for
// the simplified Image: encoding skeleton at 0x0000 (Len=8, payload
// follows the 24-byte skeleton), height at 0x0008, width at 0x000c, data
// skeleton at 0x0010.
func TestFig7Layout(t *testing.T) {
	img := newTestImage(t)
	defer Release(img)

	img.Encoding.MustSet("rgb8")
	img.Height = 10
	img.Width = 10
	img.Data.MustResize(300)

	wire, err := Bytes(img)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	le := func(off int) uint32 {
		return uint32(wire[off]) | uint32(wire[off+1])<<8 | uint32(wire[off+2])<<16 | uint32(wire[off+3])<<24
	}
	if !NativeLittleEndian() {
		msgtest.NotVerified(t, "layout golden values assume a little-endian host")
	}
	if got := le(0x0000); got != 8 {
		t.Errorf("encoding.Len = %d, want 8 (4 content + NUL + pad)", got)
	}
	encOff := le(0x0004)
	// Payload address = field address (0x0004 is the Off word; offsets are
	// relative to the descriptor start... the paper measures from each
	// integer's own location; we store relative to the descriptor field).
	payload := 0x0000 + int(encOff)
	if string(wire[payload:payload+4]) != "rgb8" {
		t.Errorf("encoding payload = %q at %#x, want rgb8", wire[payload:payload+4], payload)
	}
	if got := le(0x0008); got != 10 {
		t.Errorf("height = %d, want 10", got)
	}
	if got := le(0x000c); got != 10 {
		t.Errorf("width = %d, want 10", got)
	}
	if got := le(0x0010); got != 300 {
		t.Errorf("data.Count = %d, want 300", got)
	}
	dataOff := le(0x0014)
	if int(0x0010+int(dataOff))+300 > len(wire) {
		t.Fatalf("data payload out of bounds")
	}
	if len(wire) != 0x18+8+300 {
		t.Errorf("whole message = %d bytes, want %d (24 skeleton + 8 string + 300 data)",
			len(wire), 0x18+8+300)
	}
}

func TestOneShotStringAssignment(t *testing.T) {
	img := newTestImage(t)
	defer Release(img)

	if err := img.Encoding.Set("rgb8"); err != nil {
		t.Fatalf("first Set: %v", err)
	}
	if err := img.Encoding.Set("bgr8"); !errors.Is(err, ErrStringReassigned) {
		t.Errorf("second Set err = %v, want ErrStringReassigned", err)
	}
	if img.Encoding.Get() != "rgb8" {
		t.Errorf("content changed after rejected reassignment")
	}
}

func TestOneShotVectorResize(t *testing.T) {
	img := newTestImage(t)
	defer Release(img)

	if err := img.Data.Resize(16); err != nil {
		t.Fatalf("first Resize: %v", err)
	}
	if err := img.Data.Resize(32); !errors.Is(err, ErrVectorMultiResize) {
		t.Errorf("second Resize err = %v, want ErrVectorMultiResize", err)
	}
	// Shrinking to zero is the alert-free path the paper allows.
	if err := img.Data.Resize(0); err != nil {
		t.Errorf("Resize(0) err = %v, want nil", err)
	}
}

func TestLifecyclePublisherSide(t *testing.T) {
	img := newTestImage(t)
	img.Encoding.MustSet("mono8")
	img.Data.MustResize(64)

	// Transport takes its reference (the buffer-pointer copy of Fig. 8).
	ref, err := NewRef(img)
	if err != nil {
		t.Fatalf("NewRef: %v", err)
	}
	if err := MarkPublished(img); err != nil {
		t.Fatalf("MarkPublished: %v", err)
	}
	if st, _ := StateOf(img); st != StatePublished {
		t.Fatalf("state = %v, want Published", st)
	}

	// Developer releases the object; memory must survive for the transport.
	destructed, err := Release(img)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if destructed {
		t.Fatal("destructed while transport still holds a reference")
	}
	if got := ref.Bytes(); len(got) == 0 {
		t.Fatal("transport view empty after developer release")
	}

	// Transport finishes: now the memory goes.
	destructed, err = ref.Release()
	if err != nil {
		t.Fatalf("ref.Release: %v", err)
	}
	if !destructed {
		t.Fatal("final release did not destruct")
	}
}

func TestReleaseBeforePublishFreesImmediately(t *testing.T) {
	before := LiveMessages()
	img := newTestImage(t)
	destructed, err := Release(img)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if !destructed {
		t.Fatal("sole release did not destruct")
	}
	if got := LiveMessages(); got != before {
		t.Errorf("live = %d, want %d", got, before)
	}
}

func TestAdoptRoundTrip(t *testing.T) {
	src := newTestImage(t)
	src.Encoding.MustSet("rgb8")
	src.Height, src.Width = 4, 6
	src.Data.MustResize(4 * 6 * 3)
	for i := range src.Data.Slice() {
		src.Data.Slice()[i] = byte(i)
	}
	wire, err := Bytes(src)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}

	// Simulate the receive path: copy the frame into a fresh buffer and
	// adopt it with zero transformation.
	buf := Default().GetBuffer(len(wire))
	copy(buf.Bytes(), wire)
	dst, err := Adopt[testImage](buf, len(wire))
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	defer Release(dst)
	defer Release(src)

	if st, _ := StateOf(dst); st != StatePublished {
		t.Errorf("adopted state = %v, want Published", st)
	}
	if dst.Encoding.Get() != "rgb8" || dst.Height != 4 || dst.Width != 6 {
		t.Errorf("adopted fields = %q %d %d", dst.Encoding.Get(), dst.Height, dst.Width)
	}
	if !bytes.Equal(dst.Data.Slice(), src.Data.Slice()) {
		t.Error("adopted payload differs")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	src := newTestImage(t)
	defer Release(src)
	src.Encoding.MustSet("rgb8")
	src.Data.MustResize(8)
	src.Data.Slice()[0] = 42

	dup, err := Clone(src)
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	defer Release(dup)

	if dup.Encoding.Get() != "rgb8" || dup.Data.At(0) == src.Data.At(0) {
		t.Error("clone shares storage or lost content")
	}
	dup.Data.Slice()[0] = 7
	if src.Data.Slice()[0] != 42 {
		t.Error("mutating clone changed source")
	}
}

func TestUnmanagedPointerRejected(t *testing.T) {
	var img testImage // stack/value allocation — the converter's target case
	if err := img.Encoding.Set("rgb8"); !errors.Is(err, ErrNotManaged) {
		t.Errorf("err = %v, want ErrNotManaged", err)
	}
	if err := img.Data.Resize(4); !errors.Is(err, ErrNotManaged) {
		t.Errorf("err = %v, want ErrNotManaged", err)
	}
}

func TestCapacityExceeded(t *testing.T) {
	img, err := NewWithCapacity[testImage](64)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer Release(img)
	if err := img.Data.Resize(1 << 20); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("err = %v, want ErrCapacityExceeded", err)
	}
}

type nestedInner struct {
	Label String
	Value uint32
}

type nestedOuter struct {
	Name  String
	Items Vector[nestedInner]
}

func TestNestedMessageVectors(t *testing.T) {
	out, err := NewWithCapacity[nestedOuter](1 << 14)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer Release(out)

	out.Name.MustSet("outer")
	if err := out.Items.Resize(3); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	for i := 0; i < 3; i++ {
		it := out.Items.At(i)
		it.Value = uint32(i * 10)
		if err := it.Label.Set(string(rune('a' + i))); err != nil {
			t.Fatalf("inner Set %d: %v", i, err)
		}
	}

	// Round-trip through the wire to prove inner offsets survive.
	wire, err := Bytes(out)
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	buf := Default().GetBuffer(len(wire))
	copy(buf.Bytes(), wire)
	got, err := Adopt[nestedOuter](buf, len(wire))
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	defer Release(got)

	if got.Name.Get() != "outer" {
		t.Errorf("Name = %q", got.Name.Get())
	}
	for i := 0; i < 3; i++ {
		it := got.Items.At(i)
		if it.Value != uint32(i*10) || it.Label.Get() != string(rune('a'+i)) {
			t.Errorf("item %d = {%q %d}", i, it.Label.Get(), it.Value)
		}
	}
}

func TestEndiannessConversionInvolution(t *testing.T) {
	img := newTestImage(t)
	defer Release(img)
	img.Encoding.MustSet("rgb8")
	img.Height, img.Width = 0x01020304, 0x0a0b0c0d
	img.Data.MustResize(5)
	copy(img.Data.Slice(), []byte{1, 2, 3, 4, 5})

	wire, _ := Bytes(img)
	l, err := LayoutOf[testImage]()
	if err != nil {
		t.Fatalf("LayoutOf: %v", err)
	}
	cp := append([]byte(nil), wire...)

	// Swap to foreign order and back: must be an involution.
	foreign := append([]byte(nil), cp...)
	if err := ForeignizeEndianness(foreign, l); err != nil {
		t.Fatalf("ForeignizeEndianness: %v", err)
	}
	if bytes.Equal(foreign, cp) {
		t.Fatal("swap produced identical bytes for multi-byte scalars")
	}
	if err := swapRegion(foreign, 0, l); err != nil {
		t.Fatalf("swapRegion: %v", err)
	}
	if !bytes.Equal(foreign, cp) {
		t.Error("double swap is not the identity")
	}
}

func TestIndexInvariantsUnderChurn(t *testing.T) {
	var msgs []*testImage
	for i := 0; i < 64; i++ {
		img := newTestImage(t)
		msgs = append(msgs, img)
		if i%3 == 0 && len(msgs) > 1 {
			victim := msgs[0]
			msgs = msgs[1:]
			if _, err := Release(victim); err != nil {
				t.Fatalf("Release: %v", err)
			}
		}
		if err := CheckIndexInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	}
	for _, m := range msgs {
		Release(m)
	}
}

func TestManagerStats(t *testing.T) {
	m := NewManager()
	img, err := NewIn[testImage](m, 4096)
	if err != nil {
		t.Fatalf("NewIn: %v", err)
	}
	img.Data.MustResize(10)
	s := m.Stats()
	if s.Allocs != 1 || s.Live != 1 || s.Grows != 1 {
		t.Errorf("stats = %+v", s)
	}
	Release(img)
	s = m.Stats()
	if s.Frees != 1 || s.Live != 0 || s.BytesLive != 0 {
		t.Errorf("stats after free = %+v", s)
	}
}

func TestInvalidLayoutRejected(t *testing.T) {
	type bad struct {
		P *int
	}
	if _, err := New[bad](); !errors.Is(err, ErrInvalidLayout) {
		t.Errorf("err = %v, want ErrInvalidLayout", err)
	}
	type badSlice struct {
		S []byte
	}
	if _, err := New[badSlice](); !errors.Is(err, ErrInvalidLayout) {
		t.Errorf("err = %v, want ErrInvalidLayout", err)
	}
}

func TestRetainAfterDestructFails(t *testing.T) {
	img := newTestImage(t)
	ref, err := NewRef(img)
	if err != nil {
		t.Fatalf("NewRef: %v", err)
	}
	Release(img)
	if _, err := ref.Release(); err != nil {
		t.Fatalf("ref.Release: %v", err)
	}
	if _, err := ref.Release(); !errors.Is(err, ErrDestructed) {
		t.Errorf("double ref release err = %v, want ErrDestructed", err)
	}
}
