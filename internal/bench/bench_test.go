package bench

import (
	"testing"
	"time"

	"rossf/internal/msgtest"
	"rossf/internal/netsim"
)

// smallSizes keeps unit tests quick; shape assertions use the largest.
var smallSizes = []ImageSize{
	{Name: "48KB(128x128)", W: 128, H: 128},
	{Name: "1.2MB(640x640)", W: 640, H: 640},
}

func TestFig13ShapeHolds(t *testing.T) {
	res, err := RunFig13(Fig13Config{Sizes: smallSizes, Messages: 30, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	big := res.Rows[1]
	rosP50, sfP50 := big.ROS.Percentile(50), big.ROSSF.Percentile(50)
	if float64(sfP50) > float64(rosP50)*1.02 {
		t.Errorf("ROS-SF median not faster than ROS at %s: %v vs %v (means %v, %v)",
			big.Size.Name, rosP50, sfP50, big.ROS.Mean(), big.ROSSF.Mean())
	}
	t.Logf("\n%s", res.Format())
}

func TestFig14ShapeHolds(t *testing.T) {
	// The ProtoBuf/FlatBuf gap is one 1.2 MB allocation and copy, 5-10%
	// of a ~1 ms message against a per-message spread of 0.2-0.4 ms. To
	// resolve it, RunFig14 interleaves each pair message by message and
	// the order is judged on medians of 200 samples; means of a few
	// dozen do not resolve it (EXPERIMENTS.md, "Fig. 14's closest pair").
	res, err := RunFig14(Fig14Config{
		Size:     ImageSize{Name: "1.2MB(640x640)", W: 640, H: 640},
		Messages: 200, Warmup: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*LatencySeries)
	for _, s := range res.Series {
		byName[s.Label] = s
	}
	// Each serialization-free variant beats its serializing pair.
	pairs := [][2]string{{"ROS", "ROS-SF"}, {"RTI(XCDR2)", "RTI-FlatData"}, {"ProtoBuf", "FlatBuf"}}
	for _, p := range pairs {
		base, sf := byName[p[0]], byName[p[1]]
		if base == nil || sf == nil {
			t.Fatalf("missing series for pair %v", p)
		}
		if sfP50, baseP50 := sf.Percentile(50), base.Percentile(50); sfP50 >= baseP50 {
			t.Errorf("%s median (%v) not faster than %s median (%v); means %v, %v",
				p[1], sfP50, p[0], baseP50, sf.Mean(), base.Mean())
		}
	}
	t.Logf("\n%s", res.Format())
}

func TestFig16ShapeHolds(t *testing.T) {
	res, err := RunFig16(Fig16Config{
		Sizes:    smallSizes[1:],
		Messages: 40, Warmup: 5,
		Link: netsim.TenGigE,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	// Compare medians: on shared CI hardware a single scheduler stall
	// can swing a 40-sample mean. The shape claim is that ROS-SF does
	// not lose; the magnitude is EXPERIMENTS.md's business.
	rosP50, sfP50 := row.ROS.Percentile(50), row.ROSSF.Percentile(50)
	if float64(sfP50) > float64(rosP50)*1.02 {
		t.Errorf("ROS-SF ping-pong median not faster: ROS %v vs SF %v (means %v, %v)",
			rosP50, sfP50, row.ROS.Mean(), row.ROSSF.Mean())
	}
	// Ping-pong over a 10GbE link with ~1.2MB images costs at least two
	// serialization delays of ~1ms each.
	if row.ROSSF.Mean() < 1*time.Millisecond {
		t.Errorf("ping-pong %v implausibly fast for a paced link", row.ROSSF.Mean())
	}
	t.Logf("\n%s", res.Format())
}

func TestFig18ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("slam graph is compute-heavy")
	}
	res, err := RunFig18(Fig18Config{
		Frames: 12, Warmup: 3, Width: 320, Height: 240,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compute dominates: reductions exist but are small relative to
	// Fig. 13's transport-only numbers.
	for _, pair := range [][2]*LatencySeries{res.Pose, res.Cloud, res.Debug} {
		if pair[0].Mean() == 0 || pair[1].Mean() == 0 {
			t.Fatalf("empty series")
		}
	}
	t.Logf("\n%s", res.Format())
}

func TestTable1Matches(t *testing.T) {
	reg := msgtest.LoadRegistry(t)
	res, err := RunTable1(reg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Errorf("measured Table 1 deviates:\n%s", res.Format())
	}
}

func TestLatencyStats(t *testing.T) {
	s := &LatencySeries{Label: "x"}
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		s.Add(d * time.Millisecond)
	}
	if got := s.Mean(); got != 3*time.Millisecond {
		t.Errorf("mean = %v", got)
	}
	if got := s.Percentile(50); got != 3*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 5*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if s.Std() == 0 {
		t.Error("std = 0")
	}
	base := &LatencySeries{Samples: []time.Duration{10 * time.Millisecond}}
	fast := &LatencySeries{Samples: []time.Duration{5 * time.Millisecond}}
	if r := Reduction(base, fast); r != 50 {
		t.Errorf("reduction = %f", r)
	}
}
