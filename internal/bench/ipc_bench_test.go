package bench

import (
	"fmt"
	"testing"

	"rossf/internal/msgtest"
	"rossf/internal/obs"
	"rossf/internal/shm"
)

// TestIPCShapeHolds runs a small matrix and checks the structural
// claims: every requested transport reports, and at 1 MB the shm rows
// are descriptor-only — the instruments show one descriptor send per
// delivered message and zero per-message fallbacks, i.e. zero payload
// copies on the transport.
func TestIPCShapeHolds(t *testing.T) {
	reg := obs.NewRegistry()
	const messages, warmup = 30, 5
	cfg := IPCConfig{
		Sizes:    []int{1 << 20},
		Messages: messages,
		Warmup:   warmup,
		Dir:      t.TempDir(),
		Registry: reg,
	}
	res, err := RunIPC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byTransport := map[string]IPCRow{}
	for _, row := range res.Rows {
		byTransport[row.Transport] = row
	}
	for _, tr := range []string{IPCInproc, IPCTCP} {
		if _, ok := byTransport[tr]; !ok {
			t.Fatalf("no %s row in result", tr)
		}
	}
	if !res.ShmAvailable {
		msgtest.NotVerified(t, "no shared-memory directory on this host; shm assertions skipped")
	}
	row, ok := byTransport[IPCShm]
	if !ok {
		t.Fatal("shm available but no shm row in result")
	}
	if row.Messages != messages {
		t.Errorf("shm row measured %d messages, want %d", row.Messages, messages)
	}
	snap := reg.Snapshot()
	if want := uint64(messages + warmup); snap.Shm.DescriptorSends < want {
		t.Errorf("DescriptorSends = %d, want >= %d (every shm message must travel as a descriptor)",
			snap.Shm.DescriptorSends, want)
	}
	if snap.Shm.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0 (no per-message inline fallbacks)", snap.Shm.Fallbacks)
	}
	t.Logf("\n%s", res.Format())
}

// BenchmarkIPC reports per-transport round-trip cost and allocation
// behavior; b.SetBytes makes `go test -bench` print transport
// throughput directly.
func BenchmarkIPC(b *testing.B) {
	for _, size := range []int{4 << 10, 1 << 20} {
		for _, tr := range []string{IPCInproc, IPCShm, IPCTCP} {
			if tr == IPCShm && !shm.Available() {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", tr, formatBytes(size)), func(b *testing.B) {
				cfg := IPCConfig{Dir: b.TempDir(), Registry: obs.NewRegistry()}
				run, err := startIPC(tr, size, cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer run.Close()
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := run.Ping(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
