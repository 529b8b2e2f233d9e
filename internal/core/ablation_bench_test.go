package core

import (
	"fmt"
	"runtime"
	"testing"
)

// rewindPayload resets a message's whole-message size back to used,
// discarding payload regions, so grow-path benchmarks can run
// indefinitely inside one arena. Test-only: real code never shrinks.
func rewindPayload[T any](m *T, used int) {
	f, err := resolve(m)
	if err != nil {
		panic(err)
	}
	f.rec.mu.Lock()
	f.rec.used = uint32(used)
	f.rec.mu.Unlock()
}

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// address-ordered lookup (the paper suggests "it could be further
// optimized" — this quantifies it), buffer pooling on the alloc/free
// path, payload-growth cost, relocation (Clone), and the endianness
// conversion the paper warns "could even counteract the efficiency".

// BenchmarkManagerLookupScaling measures the binary-search record
// lookup as the number of live messages grows (§4.3.3).
func BenchmarkManagerLookupScaling(b *testing.B) {
	for _, live := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			msgs := make([]*testImage, live)
			for i := range msgs {
				m, err := NewWithCapacity[testImage](4096)
				if err != nil {
					b.Fatal(err)
				}
				msgs[i] = m
			}
			defer func() {
				for _, m := range msgs {
					Release(m)
				}
			}()
			target := msgs[live/2]
			used0, err := UsedSize(target)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC() // keep setup garbage out of the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each Set performs one interior-address lookup + grow;
				// rewind the arena so the one-shot check passes and the
				// capacity never runs out.
				target.Encoding.Len, target.Encoding.Off = 0, 0
				rewindPayload(target, used0)
				if err := target.Encoding.Set("rgb8"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocReleasePooled is the steady-state message churn the
// pool exists for.
func BenchmarkAllocReleasePooled(b *testing.B) {
	for _, capacity := range []int{4 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("cap=%dKiB", capacity/1024), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewWithCapacity[testImage](capacity)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Release(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocUnpooled is the same churn with a plain allocation per
// message — what the pooled path replaces.
func BenchmarkAllocUnpooled(b *testing.B) {
	for _, capacity := range []int{4 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("cap=%dKiB", capacity/1024), func(b *testing.B) {
			b.ReportAllocs()
			var sink []byte
			for i := 0; i < b.N; i++ {
				sink = make([]byte, capacity)
			}
			_ = sink
		})
	}
}

// BenchmarkVectorResize measures one payload grow (lookup + zero +
// descriptor write) per size.
func BenchmarkVectorResize(b *testing.B) {
	for _, n := range []int{300, 64 << 10, 6 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			m, err := NewWithCapacity[testImage](n + 4096)
			if err != nil {
				b.Fatal(err)
			}
			defer Release(m)
			used0, err := UsedSize(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				m.Data.Count, m.Data.Off = 0, 0
				rewindPayload(m, used0)
				if err := m.Data.Resize(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClone measures whole-message relocation (the generated copy
// constructor of §4.3.1).
func BenchmarkClone(b *testing.B) {
	m, err := NewWithCapacity[testImage](8 << 20)
	if err != nil {
		b.Fatal(err)
	}
	defer Release(m)
	m.Encoding.MustSet("rgb8")
	m.Data.MustResize(6 << 20)
	b.SetBytes(6 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Clone(m)
		if err != nil {
			b.Fatal(err)
		}
		Release(c)
	}
}

// BenchmarkEndianConversion quantifies §4.4.1's warning: converting a
// 6 MB message's byte order on receive.
func BenchmarkEndianConversion(b *testing.B) {
	m, err := NewWithCapacity[testImage](8 << 20)
	if err != nil {
		b.Fatal(err)
	}
	defer Release(m)
	m.Encoding.MustSet("rgb8")
	m.Data.MustResize(6 << 20)
	wire, err := Bytes(m)
	if err != nil {
		b.Fatal(err)
	}
	l, err := LayoutOf[testImage]()
	if err != nil {
		b.Fatal(err)
	}
	buf := append([]byte(nil), wire...)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Foreignize + convert back: two full conversions per iteration.
		if err := ForeignizeEndianness(buf, l); err != nil {
			b.Fatal(err)
		}
		if err := swapRegion(buf, 0, l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdopt measures the receive-side "dummy de-serialization":
// registering a filled buffer as a live message.
func BenchmarkAdopt(b *testing.B) {
	m, err := NewWithCapacity[testImage](1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	defer Release(m)
	m.Data.MustResize(512 << 10)
	wire, _ := Bytes(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := Default().GetBuffer(len(wire))
		copy(buf.Bytes(), wire)
		got, err := Adopt[testImage](buf, len(wire))
		if err != nil {
			b.Fatal(err)
		}
		Release(got)
	}
}
