package shm

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"rossf/internal/msgtest"
)

// requireQueue skips where the platform has no FIFO-backed queue,
// loudly: a skip is silent without -v and must not read as a pass.
func requireQueue(t testing.TB) {
	t.Helper()
	if !Available() {
		msgtest.NotVerified(t, "no shared-memory directory on this host")
	}
}

func TestQueueCarriesBytesAndUnlinks(t *testing.T) {
	requireQueue(t)
	t.Setenv("ROSSF_SHM_DIR", t.TempDir())
	r, err := CreateQueue()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if filepath.Dir(r.Name()) != Dir() {
		t.Fatalf("queue %s is not under %s", r.Name(), Dir())
	}
	w, err := OpenQueue(r.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(r.Name()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("frame")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(r, got); err != nil || string(got) != "frame" {
		t.Fatalf("read %q, %v", got, err)
	}
	// The writer going away is the reader's end of stream, and the
	// reader going away is the writer's EPIPE: each side learns of the
	// other's death from the queue itself.
	w.Close()
	if _, err := r.Read(got); err != io.EOF {
		t.Fatalf("read after writer close: %v, want EOF", err)
	}
	if left, _ := filepath.Glob(filepath.Join(Dir(), "*")); len(left) != 0 {
		t.Fatalf("left behind: %v", left)
	}
}

func TestQueueWriterSeesReaderDeath(t *testing.T) {
	requireQueue(t)
	t.Setenv("ROSSF_SHM_DIR", t.TempDir())
	r, err := CreateQueue()
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenQueue(r.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	os.Remove(r.Name())
	r.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("write after reader close: %v, want EPIPE", err)
	}
}

func TestOpenQueueRefusesWhatIsNotAQueue(t *testing.T) {
	requireQueue(t)
	dir := t.TempDir()
	t.Setenv("ROSSF_SHM_DIR", dir)
	plain := filepath.Join(dir, "plain")
	if err := os.WriteFile(plain, []byte("keep"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"", filepath.Join(dir, "missing"), plain} {
		if w, err := OpenQueue(path); err == nil {
			w.Close()
			t.Errorf("OpenQueue(%q) succeeded", path)
		}
	}
	if b, _ := os.ReadFile(plain); string(b) != "keep" {
		t.Fatalf("refused file was modified: %q", b)
	}
	// No reader: the open must fail (ENXIO), never block.
	fifo := filepath.Join(dir, "orphan")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	if w, err := OpenQueue(fifo); !errors.Is(err, syscall.ENXIO) {
		if err == nil {
			w.Close()
		}
		t.Fatalf("OpenQueue without a reader: %v, want ENXIO", err)
	}
}

func TestCreateQueueFailsInUnusableDir(t *testing.T) {
	requireQueue(t)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	t.Setenv("ROSSF_SHM_DIR", notDir)
	if r, err := CreateQueue(); err == nil {
		r.Close()
		t.Fatal("CreateQueue under a regular file succeeded")
	}
}

// BenchmarkDescriptorHop times one-way hops of a descriptor-sized frame
// (37 bytes: frame header, tag, descriptor) from a writer to a reader
// goroutine parked in the poller, in lockstep, over the three kernel
// channels an shm link could ride. It is the measurement behind the
// choice of a FIFO (DESIGN §3.7, EXPERIMENTS.md); run it with -cpu 1.
// ns/op is a mean over hop + acknowledgement; the p50-ns metric is the
// one-way hop.
func BenchmarkDescriptorHop(b *testing.B) {
	requireQueue(b)
	channels := []struct {
		name string
		open func(b *testing.B) (io.WriteCloser, io.ReadCloser)
	}{
		{"tcp", func(b *testing.B) (io.WriteCloser, io.ReadCloser) { return socketPair(b, "tcp", "127.0.0.1:0") }},
		{"unix", func(b *testing.B) (io.WriteCloser, io.ReadCloser) {
			return socketPair(b, "unix", filepath.Join(b.TempDir(), "hop.sock"))
		}},
		{"fifo", func(b *testing.B) (io.WriteCloser, io.ReadCloser) {
			b.Setenv("ROSSF_SHM_DIR", b.TempDir())
			r, err := CreateQueue()
			if err != nil {
				b.Fatal(err)
			}
			w, err := OpenQueue(r.Name())
			if err != nil {
				b.Fatal(err)
			}
			os.Remove(r.Name())
			return w, r
		}},
	}
	for _, ch := range channels {
		b.Run(ch.name, func(b *testing.B) {
			w, r := ch.open(b)
			defer r.Close()
			const frameLen = 37
			t0 := time.Now()
			hops := make(chan time.Duration)
			go func() {
				defer close(hops)
				var frame [frameLen]byte
				for {
					if _, err := io.ReadFull(r, frame[:]); err != nil {
						return
					}
					hops <- time.Since(t0) - time.Duration(binary.LittleEndian.Uint64(frame[:]))
				}
			}()
			lat := make([]time.Duration, 0, b.N)
			var frame [frameLen]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(frame[:], uint64(time.Since(t0)))
				if _, err := w.Write(frame[:]); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, <-hops)
			}
			b.StopTimer()
			w.Close()
			for range hops {
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns")
		})
	}
}

func socketPair(b *testing.B, network, addr string) (io.WriteCloser, io.ReadCloser) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	w, err := net.Dial(network, ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	r, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	return w, r
}
