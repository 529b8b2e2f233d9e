package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json a comparison reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSets prints, for every (metric, workload) pair, how far two
// run sets of the same code are apart against the metric's bound in
// BENCHMARK.json (read from the working directory). Its return value is
// the exit code: 1 when an end-to-end metric is worse in B than in A by
// more than its bound, or a summary is missing or reports failures.
func compareSets(dirA, dirB string) int {
	var c contract
	if err := readJSON("BENCHMARK.json", &c); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	// Every workload of the program is compared, gated by the driver
	// (named in BENCHMARK.json) or not.
	sets := map[string][2]summary{}
	for _, w := range workloads {
		var pair [2]summary
		for i, dir := range []string{dirA, dirB} {
			if err := readJSON(filepath.Join(dir, "summary_"+w.name+".json"), &pair[i]); err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				return 1
			}
		}
		sets[w.name] = pair
	}

	code := 0
	first := sets[workloads[0].name]
	h := first[0].Host
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s kernel=%s /dev/shm free=%d B\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.Kernel, h.ShmFreeBytes)
	fmt.Printf("# A=%s (seed %d)  B=%s (seed %d)  %g s per window\n", dirA, first[0].Seed, dirB, first[1].Seed, first[0].Seconds)
	fmt.Printf("%-20s %-30s %16s %16s %9s %8s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[w.name][0], sets[w.name][1]
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-20s failed: A %d of %d, B %d of %d\n", w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			code = 1
		}
		for _, m := range c.EndToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			diff := ratio(vb-va, va)
			worse := diff // the share by which B is worse than A, as the driver gates it
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := ""
			if worse > m.Bound {
				verdict, code = "WORSE", 1
			}
			fmt.Printf("%-20s %-30s %16.4f %16.4f %+8.2f%% %7.0f%% %s\n", w.name, m.Name, va, vb, diff*100, m.Bound*100, verdict)
		}
		for _, m := range c.PerLayer {
			va, vb := a.PerLayer[m.Name].Value, b.PerLayer[m.Name].Value
			fmt.Printf("%-20s %-30s %16.4f %16.4f %+8.2f%%\n", w.name, m.Name, va, vb, ratio(vb-va, va)*100)
		}
	}

	// The paper's Fig. 13 claim as a measured difference, beside the
	// layer that should explain it.
	for i, label := range []string{"A", "B"} {
		reg, sfm := sets["tcp_1m_regular"][i], sets["tcp_1m_sfm"][i]
		fmt.Printf("# %s: tcp_1m_regular - tcp_1m_sfm latency_p50_us = %.1f us; ser.serialize_us + ser.deserialize_us = %.1f us\n",
			label, reg.EndToEnd["latency_p50_us"].Value-sfm.EndToEnd["latency_p50_us"].Value,
			reg.PerLayer["ser.serialize_us"].Value+reg.PerLayer["ser.deserialize_us"].Value)
	}
	return code
}
