package bench

import (
	"testing"

	"rossf/internal/obs"
)

// TestEgressShapeHolds runs one small cell and checks the structural
// claims: the measurement is recorded, and at a coalescible payload size
// the run really shipped multiple frames per write (the instruments
// would read ~1.0 if the write loop degenerated to one frame per
// syscall). Absolute throughput is timing-sensitive and left to the
// full `make bench-egress` run; this test only pins the shape.
func TestEgressShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming benchmark cell; skipped under -short")
	}
	cfg := EgressConfig{
		Sizes:    []int{4 << 10},
		Fanouts:  []int{2},
		Messages: 512,
		Repeats:  1,
		Registry: obs.NewRegistry(),
	}
	res, err := RunEgress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.NsPerMsg <= 0 || row.MsgsPerSec <= 0 {
		t.Fatalf("missing measurement: %+v", row)
	}
	if row.FramesPerWrite <= 1 {
		t.Errorf("FramesPerWrite = %.2f, want > 1 (batching never engaged under a backlogged window)",
			row.FramesPerWrite)
	}
	t.Logf("\n%s", res.Format())
}
