package main

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// tinyBench returns a bench for the named workload at reduced scale:
// applications run 2% of their length, so level 2 is short while level 1
// builds the same kind of design points.
func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return &bench{w: w, seed: 1, instrScale: 0.02}
}

// TestTracedCountsRepeat runs every workload's traced run twice and
// checks that the output checks pass and that the counts repeat exactly.
// With two workers the sweep cache's split of repeated lookups into hits
// and waits depends on timing, so only their sum must repeat.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	exact := []string{"level1.builds", "level2.runs", "trace.hits", "sweep.builds"}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]result
			for i := range runs {
				res, err := tinyBench(t, name).traced(filepath.Join(t.TempDir(), "spans.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, res.Correct, res.Attempted, res.Failed)
				}
				runs[i] = res
			}
			a, b := runs[0].Metrics, runs[1].Metrics
			for _, m := range exact {
				if a[m].Value != b[m].Value {
					t.Errorf("%s: %v then %v", m, a[m].Value, b[m].Value)
				}
			}
			if sa, sb := a["sweep.hits"].Value+a["sweep.waits"].Value, b["sweep.hits"].Value+b["sweep.waits"].Value; sa != sb {
				t.Errorf("sweep.hits+sweep.waits: %v then %v", sa, sb)
			}
			if a["level2.runs"].Value == 0 || a["trace.hits"].Value == 0 {
				t.Errorf("level-2 replay ran nothing: %v", a)
			}
			switch name {
			case "grid-warm":
				if a["level1.builds"].Value != 0 {
					t.Errorf("grid-warm built %v design points, want 0", a["level1.builds"].Value)
				}
			default:
				if a["level1.builds"].Value == 0 {
					t.Errorf("%s built no design points", name)
				}
			}
		})
	}
}

// TestMeasureReportsEndToEnd checks the untraced run's result shape.
func TestMeasureReportsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	res, err := tinyBench(t, "grid-warm").measure(time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != len(warmGrid.Expand()) {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb"} {
		if !(res.Metrics[m].Value > 0) {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // the percentile of 0, 1, …, n-1
	}{{5, 2}, {20, 9.5}, {40, 29.25}, {100, 89.1}, {1000, 899.1}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if got := tailPercentile(xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile over %d samples = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestTracerNesting checks span parents while workers end leaf spans
// concurrently, as run spans do under a two-worker engine.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	endPass := tr.open("pass")
	endDriver := tr.open("driver")
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.leaf(runSpan)()
		}()
	}
	wg.Wait()
	endDriver()
	tr.leaf("after")()
	endPass()

	parent := map[string]int64{}
	ids := map[string]int64{}
	for _, s := range tr.spans {
		parent[s.Name], ids[s.Name] = s.Parent, s.ID
	}
	if parent["pass"] != 0 || parent["driver"] != ids["pass"] || parent[runSpan] != ids["driver"] || parent["after"] != ids["pass"] {
		t.Errorf("wrong nesting: %+v", tr.spans)
	}
	if n := len(tr.durations(runSpan)); n != 8 {
		t.Errorf("%d run spans, want 8", n)
	}
	var nilTracer *tracer
	nilTracer.open("x")()
	nilTracer.leaf("x")()
	nilTracer.record("x", time.Now(), time.Now())
}
