package wire

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"testing"
)

// The CRC-32C kernel (DESIGN §3.8): whichever path a host takes, every
// checksum must equal hash/crc32's, byte for byte, at every length,
// offset and starting state.

var stdCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// bothPaths runs f once on this host's path and once with the folding
// kernel switched off, so the hash/crc32 fallback is exercised on a
// host that has the kernel (and the kernel, where present, on every
// run).
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("host", f)
	t.Run("fallback", func(t *testing.T) {
		forceFallback(t)
		f(t)
	})
}

// forceFallback switches the folding kernel off for the rest of the test.
func forceFallback(tb testing.TB) {
	saved := vectorCRC
	vectorCRC = false
	tb.Cleanup(func() { vectorCRC = saved })
}

func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// TestChecksumMatchesStdlib is the differential test: every length up
// to 4 KiB+64 at every one of the 64 start alignments, random lengths
// up to 2 MiB, and non-zero starting states through ChecksumUpdate.
func TestChecksumMatchesStdlib(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		const maxLen = 4096 + 64
		buf := randomBytes(r, maxLen+64)
		for off := 0; off < 64; off++ {
			for n := 0; n <= maxLen; n++ {
				p := buf[off : off+n]
				if got, want := Checksum(p), crc32.Checksum(p, stdCastagnoli); got != want {
					t.Fatalf("Checksum(len %d at offset %d) = %#08x, want %#08x", n, off, got, want)
				}
			}
		}
		big := randomBytes(r, 2<<20)
		for i := 0; i < 64; i++ {
			off := r.Intn(64)
			n := r.Intn(len(big) - off + 1)
			p := big[off : off+n]
			if got, want := Checksum(p), crc32.Checksum(p, stdCastagnoli); got != want {
				t.Fatalf("Checksum(len %d at offset %d) = %#08x, want %#08x", n, off, got, want)
			}
			seed := r.Uint32()
			if got, want := ChecksumUpdate(seed, p), crc32.Update(seed, stdCastagnoli, p); got != want {
				t.Fatalf("ChecksumUpdate(%#08x, len %d) = %#08x, want %#08x", seed, n, got, want)
			}
		}
		for _, seed := range []uint32{1, 0xFFFFFFFF, 0x80000000, 0xDEADBEEF} {
			for _, n := range []int{0, 63, 64, 255, 256, 257, 1000, 4096 + 17, 1_440_000} {
				p := big[:n]
				if got, want := ChecksumUpdate(seed, p), crc32.Update(seed, stdCastagnoli, p); got != want {
					t.Fatalf("ChecksumUpdate(%#08x, len %d) = %#08x, want %#08x", seed, n, got, want)
				}
			}
		}
	})
}

// TestChecksumUpdateChainsAcrossCutover: a CRC carried through
// ChecksumUpdate over spans on either side of the kernel's cut-over
// (and of its 64-byte blocks) equals the CRC of the joined bytes — the
// sparse field-wire frame and the tagged frame's prefix‖body rely on it.
func TestChecksumUpdateChainsAcrossCutover(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(2))
		buf := randomBytes(r, 8192)
		want := crc32.Checksum(buf, stdCastagnoli)
		cuts := []int{1, 63, 64, 65, vectorCRCMin - 1, vectorCRCMin, vectorCRCMin + 1, 2*vectorCRCMin + 63}
		for _, a := range cuts {
			for _, b := range cuts {
				crc := ChecksumUpdate(0, buf[:a])
				crc = ChecksumUpdate(crc, buf[a:a+b])
				crc = ChecksumUpdate(crc, buf[a+b:])
				if crc != want {
					t.Fatalf("spans %d+%d+%d: %#08x, want %#08x", a, b, len(buf)-a-b, crc, want)
				}
				if got := Checksum2(buf[:a], buf[a:]); got != want {
					t.Fatalf("Checksum2(%d, %d) = %#08x, want %#08x", a, len(buf)-a, got, want)
				}
			}
		}
	})
}

// TestVectorCRCSelection: the kernel's selection agrees with the CPU
// check it was made from, and off amd64 there is no kernel to select.
func TestVectorCRCSelection(t *testing.T) {
	if vectorCRC != vectorCRCSupported() {
		t.Fatalf("vectorCRC = %v, CPU check says %v", vectorCRC, vectorCRCSupported())
	}
	t.Logf("folding kernel selected: %v", vectorCRC)
}

// xPowMod returns x^n mod P for the Castagnoli polynomial, in the
// normal (unreflected) bit order with the implicit x^32 dropped.
func xPowMod(n int) uint32 {
	const poly = 0x1EDC6F41 // crc32.Castagnoli unreflected
	r := uint32(1)
	for i := 0; i < n; i++ {
		carry := r >> 31
		r <<= 1
		if carry != 0 {
			r ^= poly
		}
	}
	return r
}

// reflected33 is the kernel's form of a remainder: bit-reflected into
// 33 bits, so a carry-less product lands where the reflected data
// expects it.
func reflected33(r uint32) uint64 { return uint64(bits.Reverse32(r)) << 1 }

// TestVectorCRCConstants recomputes every constant of the kernel
// (crc32c_amd64.s) from the polynomial: the fold multipliers
// x^(D±32) mod P for D = 2048, 512 and 128 bits, x^64 mod P, the
// polynomial P' and the Barrett quotient μ = floor(x^64 / P).
func TestVectorCRCConstants(t *testing.T) {
	if reflect := bits.Reverse32(0x1EDC6F41); reflect != crc32.Castagnoli {
		t.Fatalf("unreflected polynomial reflects to %#08x, not crc32.Castagnoli", reflect)
	}
	// μ: long division of x^64 by P = x^32 + poly over GF(2). The
	// quotient has degree 32; track the 65-bit dividend as hi:lo.
	const poly = 0x1EDC6F41
	hi, lo := uint64(1), uint64(0)
	var mu uint64
	for d := 64; d >= 32; d-- {
		var bit uint64
		if d == 64 {
			bit = hi
		} else {
			bit = lo >> uint(d) & 1
		}
		if bit == 0 {
			continue
		}
		mu |= 1 << uint(d-32)
		if d == 64 {
			hi, lo = 0, lo^poly<<32
		} else {
			lo ^= (1<<32 | poly) << uint(d-32)
		}
	}
	want := []struct {
		name      string
		got, want uint64
	}{
		{"x^(2048+32)", 0x0dcb17aa4, reflected33(xPowMod(2048 + 32))},
		{"x^(2048-32)", 0x0b9e02b86, reflected33(xPowMod(2048 - 32))},
		{"x^(512+32)", 0x0740eef02, reflected33(xPowMod(512 + 32))},
		{"x^(512-32)", 0x09e4addf8, reflected33(xPowMod(512 - 32))},
		{"x^(128+32)", 0x0f20c0dfe, reflected33(xPowMod(128 + 32))},
		{"x^(128-32)", 0x14cd00bd6, reflected33(xPowMod(128 - 32))},
		{"x^64", 0x0dd45aab8, reflected33(xPowMod(64))},
		{"P'", 0x105ec76f1, uint64(crc32.Castagnoli)<<1 | 1},
		{"μ", 0x0dea713f1, bits.Reverse64(mu) >> 31},
	}
	for _, c := range want {
		if c.got != c.want {
			t.Errorf("%s: kernel has %#x, polynomial gives %#x", c.name, c.got, c.want)
		}
	}
}

// FuzzChecksumMatchesStdlib: any bytes, any starting state, any split
// into two spans — the checksum equals hash/crc32's on both paths.
func FuzzChecksumMatchesStdlib(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	f.Add(uint32(0), uint16(0), []byte{})
	f.Add(uint32(0xFFFFFFFF), uint16(100), randomBytes(r, 300))
	f.Add(uint32(7), uint16(3), randomBytes(r, 4096+63))
	f.Fuzz(func(t *testing.T, seed uint32, split uint16, p []byte) {
		cut := int(split) % (len(p) + 1)
		want := crc32.Update(seed, stdCastagnoli, p)
		for _, kernel := range []bool{vectorCRC, false} {
			saved := vectorCRC
			vectorCRC = kernel
			got := ChecksumUpdate(ChecksumUpdate(seed, p[:cut]), p[cut:])
			vectorCRC = saved
			if got != want {
				t.Fatalf("kernel=%v: ChecksumUpdate(%#08x, %d+%d bytes) = %#08x, want %#08x",
					kernel, seed, cut, len(p)-cut, got, want)
			}
		}
	})
}

// BenchmarkChecksum times one pass at the sizes the transport sees,
// on this host's path and on hash/crc32. The cut-over vectorCRCMin is
// the kernel's smallest input, and the kernel already wins there.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{64, 256, 4096, 64 << 10, 1_440_000} {
		buf := randomBytes(rand.New(rand.NewSource(4)), n)
		for _, path := range []string{"host", "fallback"} {
			b.Run(fmt.Sprintf("%s/%d", path, n), func(b *testing.B) {
				if path == "fallback" {
					forceFallback(b)
				}
				b.SetBytes(int64(n))
				for b.Loop() {
					Checksum(buf)
				}
			})
		}
	}
}
