// Command rossf-bench regenerates the paper's evaluation: one
// subcommand per table or figure.
//
// Usage:
//
//	rossf-bench fig13 [-messages N] [-rate HZ] [-full]
//	rossf-bench fig14 [-messages N]
//	rossf-bench fig16 [-messages N] [-rate HZ] [-gbps G] [-latency D]
//	rossf-bench fig18 [-frames N] [-width W] [-height H]
//	rossf-bench table1
//	rossf-bench ipc [-messages N] [-out BENCH_ipc.json]
//	rossf-bench fanout [-messages N] [-repeats N] [-maxsubs N] [-size B] [-subs N] [-out BENCH_fanout.json]
//	rossf-bench netfield [-messages N] [-repeats N] [-fields a,b] [-out BENCH_netfield.json]
//	rossf-bench ingress [-frames N] [-repeats N] [-goroutines N] [-topics N] [-out BENCH_ingress.json]
//	rossf-bench failover [-entries N] [-topics N] [-lease D] [-out BENCH_failover.json]
//	rossf-bench mutexsmoke [-goroutines N] [-topics N]
//	rossf-bench all
//
// -full selects the paper's exact run lengths (2000 messages at 10 Hz),
// which takes ~2000s per series; the defaults use lockstep runs that
// preserve the reported shapes in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"rossf/internal/bench"
	"rossf/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rossf-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rossf-bench <fig13|fig14|fig16|fig18|table1|ipc|fanout|netfield|ingress|failover|mutexsmoke|all> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "fig13":
		return runFig13(rest)
	case "fig14":
		return runFig14(rest)
	case "fig16":
		return runFig16(rest)
	case "fig18":
		return runFig18(rest)
	case "table1":
		return runTable1(rest)
	case "ipc":
		return runIPC(rest)
	case "fanout":
		return runFanout(rest)
	case "netfield":
		return runNetfield(rest)
	case "ingress":
		return runIngress(rest)
	case "failover":
		return runFailover(rest)
	case "mutexsmoke":
		return runMutexSmoke(rest)
	case "fanout-drain":
		// Internal: drain-worker child spawned by the fanout runner so
		// the 10000-subscriber cells fit under per-process FD limits.
		return runFanoutDrain(rest)
	case "all":
		for _, c := range []func([]string) error{runFig13, runFig14, runFig16, runFig18, runTable1, runIPC, runFanout, runNetfield, runIngress, runMutexSmoke} {
			if err := c(nil); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}

func runFig13(args []string) error {
	fs := flag.NewFlagSet("fig13", flag.ContinueOnError)
	messages := fs.Int("messages", 200, "messages per configuration")
	rate := fs.Int("rate", 0, "publish rate in Hz (0 = lockstep)")
	full := fs.Bool("full", false, "use the paper's 2000 messages at 10 Hz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Fig13Config{Messages: *messages, RateHz: *rate}
	if *full {
		cfg.Messages, cfg.RateHz = 2000, 10
	}
	res, err := bench.RunFig13(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runFig14(args []string) error {
	fs := flag.NewFlagSet("fig14", flag.ContinueOnError)
	messages := fs.Int("messages", 100, "messages per middleware")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunFig14(bench.Fig14Config{Messages: *messages})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runFig16(args []string) error {
	fs := flag.NewFlagSet("fig16", flag.ContinueOnError)
	messages := fs.Int("messages", 100, "messages per configuration")
	rate := fs.Int("rate", 0, "publish rate in Hz (0 = lockstep)")
	gbps := fs.Float64("gbps", 10, "simulated link bandwidth in Gb/s")
	latency := fs.Duration("latency", 50*time.Microsecond, "simulated one-way latency")
	full := fs.Bool("full", false, "use the paper's 2000 messages at 10 Hz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Fig16Config{
		Messages: *messages,
		RateHz:   *rate,
		Link:     netsim.Link{BitsPerSecond: *gbps * 1e9, Latency: *latency},
	}
	if *full {
		cfg.Messages, cfg.RateHz = 2000, 10
	}
	res, err := bench.RunFig16(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runFig18(args []string) error {
	fs := flag.NewFlagSet("fig18", flag.ContinueOnError)
	frames := fs.Int("frames", 100, "frames per regime")
	width := fs.Int("width", 640, "frame width")
	height := fs.Int("height", 480, "frame height")
	rate := fs.Int("rate", 0, "frame rate in Hz (0 = lockstep)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunFig18(bench.Fig18Config{
		Frames: *frames, Width: *width, Height: *height, RateHz: *rate,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	reg, err := bench.LoadIDLRegistry(root)
	if err != nil {
		return err
	}
	res, err := bench.RunTable1(reg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

func runIPC(args []string) error {
	fs := flag.NewFlagSet("ipc", flag.ContinueOnError)
	messages := fs.Int("messages", 200, "messages per (size, transport) cell")
	out := fs.String("out", "", "write the result as JSON to this file (e.g. BENCH_ipc.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunIPC(bench.IPCConfig{Messages: *messages})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if *out != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func runFanout(args []string) error {
	fs := flag.NewFlagSet("fanout", flag.ContinueOnError)
	messages := fs.Int("messages", 2000, "measured messages per run, before the byte-budget scaling")
	repeats := fs.Int("repeats", 3, "runs per cell below 10000 subscribers; the best run is reported")
	maxsubs := fs.Int("maxsubs", 0, "largest fan-out in the matrix (0 = full matrix up to 10000)")
	size := fs.Int("size", 0, "restrict the matrix to this payload size in bytes (0 = all sizes)")
	subs := fs.Int("subs", 0, "restrict the matrix to this one subscriber count (0 = all)")
	out := fs.String("out", "", "write the result as JSON to this file (e.g. BENCH_fanout.json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the matrix to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := bench.FanoutConfig{Messages: *messages, Repeats: *repeats}
	// Re-exec this binary as drain-worker children for cells whose
	// connection count exceeds one process's FD limit.
	if exe, err := os.Executable(); err == nil {
		cfg.DrainExec = []string{exe, "fanout-drain"}
	}
	if *size > 0 {
		cfg.Sizes = []int{*size}
	}
	if *subs > 0 {
		cfg.Fanouts = []int{*subs}
	} else if *maxsubs > 0 {
		for _, f := range []int{1, 8, 100, 1000, 10000} {
			if f <= *maxsubs {
				cfg.Fanouts = append(cfg.Fanouts, f)
			}
		}
	}
	res, err := bench.RunFanout(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if *out != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func runNetfield(args []string) error {
	fs := flag.NewFlagSet("netfield", flag.ContinueOnError)
	messages := fs.Int("messages", 200, "measured messages per (size, mode) run")
	repeats := fs.Int("repeats", 3, "runs per (size, mode); the best run is reported")
	fields := fs.String("fields", "", "comma-separated field mask (default: the full std_msgs/Header)")
	gbps := fs.Float64("gbps", 10, "simulated link bandwidth in Gb/s")
	latency := fs.Duration("latency", 50*time.Microsecond, "simulated one-way latency")
	out := fs.String("out", "", "write the result as JSON to this file (e.g. BENCH_netfield.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.NetfieldConfig{
		Messages: *messages,
		Repeats:  *repeats,
		Link:     netsim.Link{BitsPerSecond: *gbps * 1e9, Latency: *latency},
	}
	if *fields != "" {
		cfg.Fields = strings.Split(*fields, ",")
	}
	res, err := bench.RunNetfield(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if *out != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func runFailover(args []string) error {
	fs := flag.NewFlagSet("failover", flag.ContinueOnError)
	entries := fs.Int("entries", 100000, "registrations pushed through the pair before the kill")
	topics := fs.Int("topics", 1024, "distinct topics the entries spread over")
	lease := fs.Duration("lease", 500*time.Millisecond, "primary lease governing standby promotion")
	out := fs.String("out", "", "write the result as JSON to this file (e.g. BENCH_failover.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunFailover(bench.FailoverConfig{
		Entries: *entries, Topics: *topics, Lease: *lease,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if *out != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func runIngress(args []string) error {
	fs := flag.NewFlagSet("ingress", flag.ContinueOnError)
	frames := fs.Int("frames", 30000, "measured frames at the smallest payload size")
	repeats := fs.Int("repeats", 3, "runs per cell; the best run is reported")
	goroutines := fs.Int("goroutines", 64, "workers in the registry-contention cells")
	topics := fs.Int("topics", 10000, "topic namespace width in the registry-contention cells")
	ops := fs.Int("ops", 50000, "lookups per worker in the registry-contention cells")
	out := fs.String("out", "", "write the result as JSON to this file (e.g. BENCH_ingress.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunIngress(bench.IngressConfig{
		Frames: *frames, Repeats: *repeats,
		Goroutines: *goroutines, Topics: *topics, Ops: *ops,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if *out != "" {
		data, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func runMutexSmoke(args []string) error {
	fs := flag.NewFlagSet("mutexsmoke", flag.ContinueOnError)
	goroutines := fs.Int("goroutines", 64, "workers hammering per-topic lookups")
	topics := fs.Int("topics", 10000, "topic namespace width")
	ops := fs.Int("ops", 20000, "lookups per worker")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunMutexSmoke(bench.MutexSmokeConfig{
		Goroutines: *goroutines, Topics: *topics, Ops: *ops,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	if !res.Pass {
		return fmt.Errorf("obs registry dominates the mutex profile (%.1f%% >= 50%%)", res.ObsShare*100)
	}
	return nil
}

func runFanoutDrain(args []string) error {
	fs := flag.NewFlagSet("fanout-drain", flag.ContinueOnError)
	addr := fs.String("addr", "", "publisher address to drain")
	conns := fs.Int("conns", 0, "subscriber connections to hold")
	size := fs.Int("size", 0, "payload size in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" || *conns <= 0 || *size <= 0 {
		return fmt.Errorf("fanout-drain needs -addr, -conns and -size")
	}
	return bench.RunFanoutDrain(*addr, *conns, *size)
}

// findModuleRoot walks up from the working directory to the directory
// containing go.mod, so the tool runs from any subdirectory.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("module root with msgs/idl not found; run inside the repository")
		}
		dir = parent
	}
}
