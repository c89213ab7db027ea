package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"dramtherm/internal/stats"
)

// A run takes setupSamples samples for setup_s. Each sample sets up and
// tears down instances until its set-ups have taken setupSampleS in
// total, and yields their mean, so that no sample rests on one
// microsecond-scale timing.
const (
	setupSamples = 21
	setupSampleS = 0.05
)

// prepare runs the workload's untimed preparation once.
func (b *bench) prepare() error {
	if b.w.prepare == nil {
		return nil
	}
	start := time.Now()
	err := b.w.prepare(b)
	fmt.Fprintf(os.Stderr, "e2ebench: %s prepared in %.1fs\n", b.w.name, time.Since(start).Seconds())
	return err
}

// timedPass runs one pass on a collected heap and returns its outcome,
// wall time and CPU time.
func timedPass(inst *instance, tr *tracer) (outcome, float64, float64) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	out := inst.pass(context.Background(), tr)
	return out, time.Since(t0).Seconds(), cpuSeconds() - c0
}

// ledger accumulates operations and output checks across passes. Its
// digest is the first pass's; later passes must match it.
type ledger struct{ outcome }

// add books one pass and checks its output: against the digest recorded
// for this workload and seed when there is one, and against the run's
// earlier passes always.
func (l *ledger) add(b *bench, out outcome) {
	l.attempted += out.attempted
	l.failed += out.failed
	l.problems = append(l.problems, out.problems...)
	if out.digest == "" {
		return
	}
	if want, ok := recordedDigest(b); ok && out.digest != want {
		l.mismatch("output digest %s, recorded %s", out.digest, want)
	}
	if l.digest == "" {
		l.digest = out.digest
	} else if out.digest != l.digest {
		l.mismatch("output differs between passes of one run")
	}
}

func (l *ledger) result(metrics map[string]metric) result {
	for _, p := range l.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	return result{
		Correct:   len(l.problems) == 0 && l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   metrics,
	}
}

// measure is the untraced run: set-up samples, then fresh set-ups and
// passes until the passes have taken minWall, reporting medians. The
// peak resident set is that of the passes alone: grid-warm's fill and
// the set-up samples are behind its reset.
func (b *bench) measure(minWall time.Duration) (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	var setups, walls, cpus []float64
	for range setupSamples {
		s, err := b.setupSample()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	if err := resetPeakRSS(); err != nil {
		return result{}, fmt.Errorf("resetting the peak resident set: %w", err)
	}
	var led ledger
	for stats.Sum(walls) < minWall.Seconds() {
		inst, err := b.w.setup(b)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		out, wall, cpu := timedPass(inst, nil)
		builds, _ := inst.sys.Store().Counts()
		fmt.Fprintf(os.Stderr, "e2ebench: pass %d: %.3fs wall, %.3fs CPU, %d level-1 builds, digest %s\n", len(walls)+1, wall, cpu, builds, out.digest)
		inst.close()
		led.add(b, out)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return result{}, fmt.Errorf("reading the peak resident set: %w", err)
	}
	return led.result(map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {peak, "MiB"},
	}), nil
}

// setupSample sets up and closes fresh instances, starting from a
// collected heap, until the set-ups alone have taken setupSampleS. It
// returns their mean time.
func (b *bench) setupSample() (float64, error) {
	runtime.GC()
	total, n := 0.0, 0
	for total < setupSampleS {
		start := time.Now()
		inst, err := b.w.setup(b)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		total += time.Since(start).Seconds()
		n++
		inst.close()
	}
	return total / float64(n), nil
}
