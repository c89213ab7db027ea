package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/sim"
	"dramtherm/internal/simtest/benchcases"
	"dramtherm/internal/stats"
	"dramtherm/internal/sweep"
	"dramtherm/internal/trace"
)

// span is one timed call into a layer, recorded from this benchmark's
// own files around public functions.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced pass began
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps the traced pass's spans in memory. A nil tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	scope atomic.Int64 // the open span new spans nest under

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span nested under the current scope and makes it the
// scope until the returned function ends it. Passes open spans from one
// goroutine at a time; run spans, which workers start concurrently, use
// leaf.
func (t *tracer) open(name string) func() {
	if t == nil {
		return func() {}
	}
	id, end := t.start(name)
	parent := t.scope.Swap(id)
	return func() {
		end()
		t.scope.Store(parent)
	}
}

// leaf starts a span nested under the current scope; the returned
// function ends it.
func (t *tracer) leaf(name string) func() {
	if t == nil {
		return func() {}
	}
	_, end := t.start(name)
	return end
}

func (t *tracer) start(name string) (int64, func()) {
	id, parent, start := t.next.Add(1), t.scope.Load(), time.Now()
	return id, func() { t.add(span{ID: id, Parent: parent, Name: name}, start, time.Now()) }
}

// record adds an already timed span under the current scope.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.next.Add(1), Parent: t.scope.Load(), Name: name}, start, end)
}

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count returns how many spans have been recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the lengths of the spans with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// runSpan is the name of the span around each level-2 run.
const runSpan = "core.System.RunCtx"

// timeRuns routes eng's runs through sys.RunCtx inside a run span, and
// reports each run's host and simulated seconds to onRun when non-nil.
func timeRuns(eng *sweep.Engine, sys *core.System, tr *tracer, onRun func(host, simulated float64)) {
	var mu sync.Mutex
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		end := tr.leaf(runSpan)
		start := time.Now()
		res, err := sys.RunCtx(ctx, rs)
		host := time.Since(start).Seconds()
		end()
		if err == nil && onRun != nil {
			mu.Lock()
			onRun(host, res.Seconds)
			mu.Unlock()
		}
		return res, err
	})
}

// traced is the traced run. It makes one traced pass, then attributes
// the pass's work: level 1 by rebuilding every design point the pass
// built, and level 2 by replaying its runs over a prefilled trace store.
// The per-step kernels are timed apart, by kernelMetrics.
func (b *bench) traced(spansPath string) (result, error) {
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	var led ledger

	tr := newTracer()
	inst, err := b.w.setup(b)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var (
		mu    sync.Mutex
		built []trace.Rates
	)
	inst.sys.Store().SetOnBuild(func(r trace.Rates) {
		mu.Lock()
		built = append(built, r)
		mu.Unlock()
	})
	timeRuns(inst.eng, inst.sys, tr, nil)
	end := tr.open("pass")
	out, wall, _ := timedPass(inst, tr)
	end()
	st := inst.eng.Stats()
	var records []trace.Rates
	inst.sys.Store().Range(func(r trace.Rates) bool {
		records = append(records, r)
		return true
	})
	inst.close()
	led.add(b, out)

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("trace.overhead_s", "s", float64(tr.count())*spanCost())
	put("sweep.builds", "count", float64(st.Builds))
	put("sweep.hits", "count", float64(st.Hits))
	put("sweep.waits", "count", float64(st.Waits))
	runs := stats.Sum(tr.durations(runSpan))
	put("sweep.pool_util", "ratio", runs/(wall*float64(inst.eng.Workers())))
	httpOverhead := 0.0
	if out.requestS > 0 {
		httpOverhead = (out.requestS - out.sweepS) * 1e3
	}
	put("httpapi.overhead_ms", "ms", httpOverhead)
	for _, id := range reproDrivers {
		put("exp."+id+"_s", "s", stats.Sum(tr.durations("exp."+id)))
	}

	// Level 1: rebuild what the pass built, serially, with a fresh
	// builder configured as core.NewSystem configures its own.
	l1, err := b.rebuild(built)
	if err != nil {
		led.mismatch("%v", err)
	}
	put("level1.builds", "count", float64(len(built)))
	put("level1.busy_s", "s", stats.Sum(l1))
	put("level1.build_ms_p50", "ms", median(l1)*1e3)
	put("level1.build_ms_p90", "ms", tailPercentile(l1)*1e3)

	// Level 2: replay the runs on a fresh one-worker engine whose store
	// already holds every record, so no level-1 work can happen.
	sys := core.NewSystem(b.w.config(b))
	sys.Store().PutBatch(records)
	eng := sweep.NewEngine(sys, 1)
	var hosts []float64
	simulated := 0.0
	timeRuns(eng, sys, nil, func(host, s float64) {
		hosts = append(hosts, host)
		simulated += s
	})
	if err := b.w.level2(b, eng); err != nil {
		led.mismatch("level-2 replay: %v", err)
	}
	builds, hits := sys.Store().Counts()
	if builds != 0 {
		led.mismatch("level-2 replay built %d design points, want 0", builds)
	}
	put("level2.runs", "count", float64(len(hosts)))
	put("level2.busy_s", "s", stats.Sum(hosts))
	put("level2.run_ms_p50", "ms", median(hosts)*1e3)
	put("level2.sim_s_per_host_s", "s/s", ratio(simulated, stats.Sum(hosts)))
	put("trace.hits", "count", float64(hits))
	put("level1.share", "ratio", ratio(stats.Sum(l1), stats.Sum(l1)+stats.Sum(hosts)))

	if err := writeSpans(spansPath, b, tr); err != nil {
		return result{}, err
	}
	return led.result(m), nil
}

// rebuild builds each record's design point again and returns the
// build times in seconds. Every rebuilt record must equal the stored one.
func (b *bench) rebuild(recs []trace.Rates) ([]float64, error) {
	cfg := b.w.config(b)
	l1 := sim.NewLevel1(cfg.Seed)
	l1.Params = cfg.Params
	if len(cfg.DVFS) > 0 {
		l1.MaxFreqGHz = cfg.DVFS[0].FreqGHz
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Point.String() < recs[j].Point.String() })
	var times []float64
	var mismatched []string
	for _, want := range recs {
		start := time.Now()
		got, err := l1.Build(want.Point)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return times, fmt.Errorf("level-1 rebuild of %v: %w", want.Point, err)
		}
		if !sameRates(got, want) {
			mismatched = append(mismatched, want.Point.String())
		}
	}
	if len(mismatched) > 0 {
		return times, fmt.Errorf("level-1 rebuild differs from the stored record at %v", mismatched)
	}
	return times, nil
}

// sameRates compares two records bit for bit.
func sameRates(a, b trace.Rates) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Point != b.Point || len(a.PerApp) != len(b.PerApp) ||
		!eq(a.TotalReadGBps, b.TotalReadGBps) || !eq(a.TotalWriteGBps, b.TotalWriteGBps) ||
		!eq(a.MeanLatencyNS, b.MeanLatencyNS) {
		return false
	}
	for n, x := range a.PerApp {
		y, ok := b.PerApp[n]
		if !ok || !eq(x.InstrPerSec, y.InstrPerSec) || !eq(x.IPCRef, y.IPCRef) ||
			!eq(x.ReadGBps, y.ReadGBps) || !eq(x.WriteGBps, y.WriteGBps) ||
			!eq(x.L2MissPerSec, y.L2MissPerSec) || !eq(x.L2AccessPerSec, y.L2AccessPerSec) ||
			!eq(x.MemBoundFrac, y.MemBoundFrac) {
			return false
		}
	}
	return true
}

// kernelCases maps each benchcases case to the metric it reports.
var kernelCases = map[string]string{
	"Level1Timestep": "level1.tick_ns",
	"MemctrlTick":    "memctrl.tick_ns",
	"ThermalStep":    "thermal.step_ns",
	"MEMSpotWindow":  "memspot.window_ns",
}

// kernelMetrics runs each benchcases case through testing.Benchmark and
// reports its time per operation.
func kernelMetrics() map[string]metric {
	m := map[string]metric{}
	for name, metricName := range kernelCases {
		ns := 0.0
		if fn, ok := benchcases.ByName(name); ok {
			runtime.GC()
			if r := testing.Benchmark(fn); r.N > 0 {
				ns = float64(r.T.Nanoseconds()) / float64(r.N)
			}
		}
		m[metricName] = metric{ns, "ns"}
	}
	return m
}

// spanCost returns the host seconds one span costs the traced pass,
// timed over many spans opened and ended on a scratch tracer.
func spanCost() float64 {
	const n = 100_000
	tr := newTracer()
	start := time.Now()
	for range n {
		tr.open(runSpan)()
	}
	return time.Since(start).Seconds() / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the traced pass's spans as one JSON document.
func writeSpans(path string, b *bench, tr *tracer) error {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.MarshalIndent(map[string]any{
		"workload": b.w.name, "seed": b.seed, "spans": spans,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
