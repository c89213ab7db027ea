package sim

import (
	"math"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// fastLevel1 returns a short-window builder for unit tests.
func fastLevel1() *Level1 {
	l1 := NewLevel1(1)
	l1.WarmupNS = 3e5
	l1.MeasureNS = 3e5
	return l1
}

func w1(t *testing.T) workload.Mix {
	t.Helper()
	m, err := workload.MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLevel1Determinism(t *testing.T) {
	dp := trace.DesignPoint{Apps: "mgrid|swim", FreqGHz: 3.2, BWCapGBps: math.Inf(1)}
	a, err := fastLevel1().Build(dp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastLevel1().Build(dp)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalReadGBps != b.TotalReadGBps || a.PerApp["swim"] != b.PerApp["swim"] {
		t.Fatalf("nondeterministic level-1: %+v vs %+v", a, b)
	}
}

func TestLevel1ZeroPoints(t *testing.T) {
	l1 := fastLevel1()
	for _, dp := range []trace.DesignPoint{
		{Apps: "", FreqGHz: 3.2},
		{Apps: "swim", FreqGHz: 3.2, MemOff: true},
		{Apps: "swim", FreqGHz: 0},
	} {
		r, err := l1.Build(dp)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalGBps() != 0 {
			t.Fatalf("%v has traffic", dp)
		}
	}
	// Too many apps.
	if _, err := l1.Build(trace.DesignPoint{Apps: "a|b|c|d|e", FreqGHz: 3.2}); err == nil {
		t.Fatal("5 apps on 4 cores accepted")
	}
	// Unknown app.
	if _, err := l1.Build(trace.DesignPoint{Apps: "nosuch", FreqGHz: 3.2}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestLevel1CapBinds(t *testing.T) {
	l1 := fastLevel1()
	l1.MeasureNS = 1e6
	apps := trace.CanonApps(w1(t).Apps)
	capped, err := l1.Build(trace.DesignPoint{Apps: apps, FreqGHz: 3.2, BWCapGBps: 6.4})
	if err != nil {
		t.Fatal(err)
	}
	if got := capped.TotalGBps(); math.Abs(got-6.4) > 0.8 {
		t.Fatalf("capped throughput %v, want ≈6.4", got)
	}
	free, err := l1.Build(trace.DesignPoint{Apps: apps, FreqGHz: 3.2, BWCapGBps: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if free.TotalGBps() < capped.TotalGBps()*1.5 {
		t.Fatalf("uncapped %v not much above capped %v", free.TotalGBps(), capped.TotalGBps())
	}
}

// tinyConfig returns a MEMSpot config that completes in well under a
// second of wall time.
func tinyConfig(t *testing.T, policy dtm.Policy) MEMSpotConfig {
	return MEMSpotConfig{
		Mix:        w1(t),
		Replicas:   1,
		Policy:     policy,
		Cooling:    fbconfig.CoolingAOHS15,
		Ambient:    fbconfig.AmbientIsolated,
		InstrScale: 0.002,
	}
}

func tinyStore() *trace.Store {
	return trace.NewStore(fastLevel1())
}

func TestMEMSpotValidation(t *testing.T) {
	if _, err := NewMEMSpot(tinyConfig(t, nil), tinyStore()); err == nil {
		t.Fatal("nil policy accepted")
	}
	cfg := tinyConfig(t, &dtm.NoLimit{Cores: 4})
	if _, err := NewMEMSpot(cfg, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	cfg.Mix = workload.Mix{Name: "bad", Apps: []string{"nosuch"}}
	if _, err := NewMEMSpot(cfg, tinyStore()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestMEMSpotCompletes(t *testing.T) {
	res, err := RunMix(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d of 4 jobs", res.Completed)
	}
	if res.Seconds <= 0 || res.TotalTrafficGB() <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MemEnergyJ <= 0 || res.CPUEnergyJ <= 0 {
		t.Fatal("no energy accounted")
	}
	if len(res.AMBTrace) == 0 {
		t.Fatal("no temperature trace")
	}
}

func TestMEMSpotThermalSafety(t *testing.T) {
	// A short test run spans only a fraction of the 50 s AMB time
	// constant, so lower the TDP to a point reached within seconds.
	lim := fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	ts := dtm.NewTS(lim, 4)
	store := tinyStore()
	cfg := tinyConfig(t, ts)
	cfg.Limits = lim
	cfg.InstrScale = 0.05
	res, err := RunMix(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	// DTM-TS keeps the AMB at or below the TDP (it trips exactly there).
	if res.MaxAMB > lim.AMBTDP+0.2 {
		t.Fatalf("TS exceeded TDP: %v", res.MaxAMB)
	}
	if res.TimeMemOff <= 0 {
		t.Fatal("TS never shut the memory down")
	}
	// The throttled run is slower than No-limit.
	baseCfg := tinyConfig(t, &dtm.NoLimit{Cores: 4})
	baseCfg.InstrScale = 0.05
	base, err := RunMix(baseCfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= base.Seconds {
		t.Fatalf("TS (%v s) not slower than No-limit (%v s)", res.Seconds, base.Seconds)
	}
}

func TestMEMSpotResidency(t *testing.T) {
	// Shift the emergency levels down so ACG engages within the short run.
	acg := dtm.NewACG(dtm.LevelsForTDP(103.5, 85), 4)
	cfg := tinyConfig(t, acg)
	cfg.Limits = fbconfig.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	cfg.InstrScale = 0.05
	res, err := RunMix(cfg, tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range res.TimeAtCores {
		total += s
	}
	if math.Abs(total-res.Seconds) > 0.1 {
		t.Fatalf("core residency %v != runtime %v", total, res.Seconds)
	}
	// ACG must actually have gated cores at some point.
	gated := 0.0
	for n, s := range res.TimeAtCores {
		if n < 4 {
			gated += s
		}
	}
	if gated == 0 {
		t.Fatal("ACG never gated a core")
	}
}

func TestMEMSpotMaxSeconds(t *testing.T) {
	cfg := tinyConfig(t, &dtm.NoLimit{Cores: 4})
	cfg.MaxSeconds = 1
	cfg.InstrScale = 1 // full-length jobs cannot finish in 1 s
	res, err := RunMix(cfg, tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("MaxSeconds not enforced")
	}
}

func TestMEMSpotIntegratedAmbient(t *testing.T) {
	cfg := tinyConfig(t, &dtm.NoLimit{Cores: 4})
	cfg.Ambient = fbconfig.AmbientIntegrated
	res, err := RunMix(cfg, tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	// CPU preheat must raise the ambient above the inlet.
	last := res.AmbientTrace[len(res.AmbientTrace)-1]
	if last <= fbconfig.AmbientIntegrated.InletAOHS15 {
		t.Fatalf("ambient %v never rose above inlet", last)
	}
}

func TestNoLimitRuntimeHelper(t *testing.T) {
	cfg := tinyConfig(t, nil)
	res, err := NoLimitRuntime(cfg, tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Fatal("baseline empty")
	}
}

// TestMEMSpotKeyLimits: machines and mixes past what a design-point key
// describes are refused up front.
func TestMEMSpotKeyLimits(t *testing.T) {
	cfg := tinyConfig(t, &dtm.NoLimit{Cores: maxKeyCores + 1})
	cfg.Params = fbconfig.DefaultSimParams
	cfg.Params.Cores = maxKeyCores + 1
	if _, err := NewMEMSpot(cfg, tinyStore()); err == nil {
		t.Fatalf("%d cores accepted", cfg.Params.Cores)
	}
	cfg = tinyConfig(t, &dtm.NoLimit{Cores: 4})
	apps := make([]string, maxSlots+1)
	for i := range apps {
		apps[i] = "swim"
	}
	cfg.Mix = workload.Mix{Name: "wide", Apps: apps}
	if _, err := NewMEMSpot(cfg, tinyStore()); err == nil {
		t.Fatalf("mix of %d applications accepted", len(apps))
	}
	cfg.Mix = workload.Mix{Name: "full", Apps: apps[:maxSlots]}
	if _, err := NewMEMSpot(cfg, tinyStore()); err != nil {
		t.Fatalf("mix of %d applications: %v", maxSlots, err)
	}
}
