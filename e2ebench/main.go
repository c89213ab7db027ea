// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of three closed-loop batch workloads in this process — one client, at
// most two simulation workers — and prints one JSON result line:
//
//	e2ebench --workload repro-quick|grid-cold|grid-warm --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (setup_s, wall_s,
// cpu_s, peak_rss_mb); with --trace 1 it runs a separate traced pass and
// reports the per-layer metrics instead. README.md explains the
// workloads, the metrics and the layers they belong to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dramtherm/internal/stats"
)

// deadline bounds a whole invocation: a run that has not finished by
// then exits non-zero without printing a result.
const deadline = 175 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: repro-quick, grid-cold or grid-warm")
	seed := flag.Int64("seed", 1, "workload seed (core.Config.Seed)")
	seconds := flag.Float64("seconds", 10, "minimum length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: %s did not finish within %v\n", *name, deadline)
		os.Exit(1)
	})

	b := &bench{w: w, seed: *seed, instrScale: 1}
	var res result
	var err error
	if *traced == 1 {
		res, err = b.traced(fmt.Sprintf(".bench_build/spans/%s-%d.json", w.name, *seed))
		if err == nil {
			for name, m := range kernelMetrics() {
				res.Metrics[name] = m
			}
		}
	} else {
		res, err = b.measure(time.Duration(*seconds * float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns the heap's free pages to the kernel and resets
// the process's resident-set high-water mark to its current size, so
// peakRSSMB reports the peak of what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	v, _ := stats.Percentile(xs, 50) // ErrEmpty leaves 0
	return v
}

// tailPercentile returns the highest percentile of xs, capped at p90 and
// floored at the median, that still has at least ten samples beyond it.
func tailPercentile(xs []float64) float64 {
	q := 1 - 10/float64(len(xs))
	v, _ := stats.Percentile(xs, 100*min(max(q, 0.5), 0.9)) // ErrEmpty leaves 0
	return v
}
