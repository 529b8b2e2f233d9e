package bench

import (
	"testing"

	"rossf/internal/obs"
)

// TestFanoutShapeHolds runs one small cell and checks the structural
// claims: the measurement is recorded, a two-subscriber publisher keeps
// its per-connection write loops (no shard pool below the threshold),
// and at a coalescible payload size the run really shipped multiple
// frames per write (the instruments would read ~1.0 if the write loop
// degenerated to one frame per syscall). Absolute throughput is
// timing-sensitive and left to the full `make bench-fanout` run; this
// test only pins the shape.
func TestFanoutShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming benchmark cell; skipped under -short")
	}
	cfg := FanoutConfig{
		Sizes:    []int{4 << 10},
		Fanouts:  []int{2},
		Messages: 512,
		Repeats:  1,
		Registry: obs.NewRegistry(),
	}
	res, err := RunFanout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.NsPerMsg <= 0 || row.MsgsPerSec <= 0 || row.PublishNs <= 0 {
		t.Fatalf("missing measurement: %+v", row)
	}
	if row.ShardedConns != 0 {
		t.Errorf("ShardedConns = %d, want 0 (two subscribers are far below the shard threshold)",
			row.ShardedConns)
	}
	if row.FramesPerWrite <= 1 {
		t.Errorf("FramesPerWrite = %.2f, want > 1 (batching never engaged under a backlogged window)",
			row.FramesPerWrite)
	}
	t.Logf("\n%s", res.Format())
}
