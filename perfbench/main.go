// Command perfbench is the repository's benchmark: it runs one named
// workload against the program built from this checkout, checks that
// the outputs are correct, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// spans recorded; with -trace 1 a separate traced run times direct
// calls into each layer and reports the per-layer metrics. See
// README.md for the workloads, the metrics and the layer each one
// should move.
//
// Run it through run.sh, which builds the harness, stcd and tracedur:
//
//	sh perfbench/run.sh --workload battery --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every run needs: where the built binaries live, a
// scratch directory inside the checkout, and the run's parameters.
type env struct {
	bin, work string
	seed      int64
	seconds   time.Duration
}

// class accounts one homogeneous class of operations: its attempted
// and failed counts and the latencies of the operations that did not
// fail.
type class struct {
	name      string
	attempted int
	failed    int
	samples   []float64
}

// ok records a successful operation's latency.
func (c *class) ok(v float64) { c.attempted++; c.samples = append(c.samples, v) }

// fail records a failed operation: counted, never timed.
func (c *class) fail() { c.attempted++; c.failed++ }

func (c *class) median() float64 { return quantile(c.samples, 0.5) }

// report prints the class on one line: counts, median, quartiles and
// the highest of p90/p99 that has at least ten samples beyond it.
func (c *class) report(unit string) {
	line := fmt.Sprintf("class %-14s attempted=%d failed=%d", c.name, c.attempted, c.failed)
	if len(c.samples) > 0 {
		line += fmt.Sprintf(" median=%.4g%s q1=%.4g q3=%.4g", c.median(), unit, quantile(c.samples, 0.25), quantile(c.samples, 0.75))
		for _, p := range []float64{0.99, 0.9} {
			if float64(len(c.samples))*(1-p) >= 10 {
				line += fmt.Sprintf(" p%g=%.4g%s", p*100, quantile(c.samples, p), unit)
				break
			}
		}
		line += fmt.Sprintf(" n=%d", len(c.samples))
		if len(c.samples) <= 16 {
			line += fmt.Sprintf(" samples=%.4g", c.samples)
		}
	}
	fmt.Println(line)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// checks collects output-check failures; a run with any is not
// correct.
type checks struct{ failures []string }

func (c *checks) add(err error) {
	if err != nil {
		c.failures = append(c.failures, err.Error())
		fmt.Println("CHECK FAILED:", err)
	}
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// printEnv prints what the numbers depend on: core count, GOMAXPROCS,
// the Go version and the commit the harness was built from.
func printEnv() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func main() {
	workload := flag.String("workload", "", "workload to run: battery or service")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "how long the measured part of the run lasts")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	bin := flag.String("bin", "", "directory holding the stcd and tracedur binaries")
	work := flag.String("work", "", "scratch directory for daemon state and trace files")
	flag.Parse()
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, -seconds >= 1 and -trace 0|1 (use run.sh)")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := env{bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	// The battery runs single-threaded unless GOMAXPROCS is set: on a
	// shared 2-vCPU host, time stolen from either vCPU stalls a
	// two-thread battery at every fan-out join, while one thread moves
	// to whichever vCPU runs. Under 20% steal the -small battery slowed
	// 1.9x at GOMAXPROCS=2 and 1.3x at GOMAXPROCS=1.
	if *workload == "battery" && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	printEnv()

	ctx := context.Background()
	var res *result
	var err error
	switch {
	case *trace == 1 && (*workload == "battery" || *workload == "service"):
		res, err = tracedRun(ctx, e, *workload)
	case *workload == "battery":
		res, err = runBattery(ctx, e)
	case *workload == "service":
		res, err = runService(ctx, e)
	default:
		err = fmt.Errorf("unknown workload %q (want battery or service)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
