// Package simtest is the differential test harness guarding the
// simulator fast path. The hot loop (cached decay factors in
// internal/thermal, reused buffers and the design-point table in
// internal/sim, the boxing-free completion heap in internal/memctrl)
// is an optimization of a retained reference path — package-level
// thermal.Step / Model.AdvanceExact — and this package provides the
// machinery that proves the two stay interchangeable: seeded random
// workload configurations run through both paths end to end, results
// compared field by field with temperature trajectories held to the
// documented ULP bound (docs/PERFORMANCE.md), and the sweep-level
// report tables compared byte for byte.
package simtest

import (
	"fmt"
	"math"
	"math/rand"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// MaxTrajectoryULP is the documented agreement bound between the fast
// and exact thermal paths, in units in the last place per recorded
// sample. The two paths agree bit for bit today (the cached factor is
// computed by the identical expression); the contract leaves 1 ULP of
// headroom so a future reassociation (e.g. FMA) is a documented event,
// not silent drift.
const MaxTrajectoryULP = 1

// ULPDiff returns the distance between a and b in representable
// float64 steps: 0 means bit-identical (or both zero of either sign),
// 1 means adjacent floats. NaNs and differing infinities compare as
// the maximum distance.
func ULPDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		if math.IsNaN(a) && math.IsNaN(b) {
			return 0
		}
		return math.MaxUint64
	}
	x, y := ulpOrdinal(a), ulpOrdinal(b)
	if x > y {
		return x - y
	}
	return y - x
}

// ulpOrdinal maps a float64 onto an unsigned scale that is monotone in
// the real-number ordering, so ordinal distance counts representable
// steps across the whole line (including through zero).
func ulpOrdinal(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u // negative range, reversed
	}
	return u | 1<<63
}

// CompareTrajectories checks two recorded temperature traces sample by
// sample against the ULP bound and returns the maximum observed
// distance.
func CompareTrajectories(name string, fast, exact []float64, maxULP uint64) (uint64, error) {
	if len(fast) != len(exact) {
		return math.MaxUint64, fmt.Errorf("%s: %d samples fast vs %d exact", name, len(fast), len(exact))
	}
	var worst uint64
	for i := range fast {
		d := ULPDiff(fast[i], exact[i])
		if d > worst {
			worst = d
		}
		if d > maxULP {
			return worst, fmt.Errorf("%s[%d]: fast %v vs exact %v differ by %d ULP (bound %d)",
				name, i, fast[i], exact[i], d, maxULP)
		}
	}
	return worst, nil
}

// CompareResults compares a fast-path MEMSpot result against the
// exact-path reference: counters and residency exactly, float scalars
// and the three temperature trajectories within maxULP. It returns the
// worst trajectory distance observed.
func CompareResults(fast, exact sim.MEMSpotResult, maxULP uint64) (uint64, error) {
	if fast.Completed != exact.Completed || fast.TimedOut != exact.TimedOut ||
		fast.Overshoots != exact.Overshoots {
		return 0, fmt.Errorf("counters diverge: completed %d/%d, timedout %v/%v, overshoots %d/%d",
			fast.Completed, exact.Completed, fast.TimedOut, exact.TimedOut,
			fast.Overshoots, exact.Overshoots)
	}
	scalars := []struct {
		name        string
		fast, exact float64
	}{
		{"Seconds", fast.Seconds, exact.Seconds},
		{"ReadGB", fast.ReadGB, exact.ReadGB},
		{"WriteGB", fast.WriteGB, exact.WriteGB},
		{"L2Misses", fast.L2Misses, exact.L2Misses},
		{"L2Accesses", fast.L2Accesses, exact.L2Accesses},
		{"MemEnergyJ", fast.MemEnergyJ, exact.MemEnergyJ},
		{"CPUEnergyJ", fast.CPUEnergyJ, exact.CPUEnergyJ},
		{"MaxAMB", fast.MaxAMB, exact.MaxAMB},
		{"MaxDRAM", fast.MaxDRAM, exact.MaxDRAM},
		{"TimeMemOff", fast.TimeMemOff, exact.TimeMemOff},
	}
	for _, s := range scalars {
		if d := ULPDiff(s.fast, s.exact); d > maxULP {
			return 0, fmt.Errorf("%s: fast %v vs exact %v differ by %d ULP (bound %d)",
				s.name, s.fast, s.exact, d, maxULP)
		}
	}
	if err := compareResidency("TimeAtCores", fast.TimeAtCores, exact.TimeAtCores, maxULP); err != nil {
		return 0, err
	}
	if err := compareResidency("TimeAtFreq", fast.TimeAtFreq, exact.TimeAtFreq, maxULP); err != nil {
		return 0, err
	}
	var worst uint64
	for _, tr := range []struct {
		name        string
		fast, exact []float64
	}{
		{"AMBTrace", fast.AMBTrace, exact.AMBTrace},
		{"DRAMTrace", fast.DRAMTrace, exact.DRAMTrace},
		{"AmbientTrace", fast.AmbientTrace, exact.AmbientTrace},
	} {
		w, err := CompareTrajectories(tr.name, tr.fast, tr.exact, maxULP)
		if w > worst {
			worst = w
		}
		if err != nil {
			return worst, err
		}
	}
	return worst, nil
}

func compareResidency(name string, fast, exact map[int]float64, maxULP uint64) error {
	if len(fast) != len(exact) {
		return fmt.Errorf("%s: %d keys fast vs %d exact", name, len(fast), len(exact))
	}
	for k, fv := range fast {
		ev, ok := exact[k]
		if !ok {
			return fmt.Errorf("%s[%d]: only in fast result", name, k)
		}
		if d := ULPDiff(fv, ev); d > maxULP {
			return fmt.Errorf("%s[%d]: fast %v vs exact %v differ by %d ULP", name, k, fv, ev, d)
		}
	}
	return nil
}

// Spec describes one randomized differential workload by value, so the
// harness can instantiate it twice — DTM policies are stateful, and the
// fast and exact runs must not share one.
type Spec struct {
	MixName    string
	Policy     string // DTM-TS, DTM-BW, DTM-ACG, DTM-CDVFS, DTM-COMB
	Replicas   int
	InstrScale float64
	SensorSeed int64 // nonzero: noisy Chapter 5 sensors
	MaxSeconds float64
	// Limits overrides the thermal limits when nonzero. The divergence
	// suite tightens them so short runs actually cross the emergency
	// levels and policies throttle — and therefore diverge.
	Limits fbconfig.ThermalLimits
}

// RandomSpec draws a workload specification from r. Successive draws
// from one seeded source cover every paper mix, all five table-driven
// policies, noisy and noiseless sensors, and a spread of batch scales.
func RandomSpec(r *rand.Rand) Spec {
	s := Spec{
		MixName:    workload.Mixes[r.Intn(len(workload.Mixes))].Name,
		Replicas:   1 + r.Intn(2),
		InstrScale: 0.002 + 0.006*r.Float64(),
		MaxSeconds: 2000,
	}
	policies := []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS", "DTM-COMB"}
	s.Policy = policies[r.Intn(len(policies))]
	if r.Intn(2) == 1 {
		s.SensorSeed = 1 + r.Int63n(1<<30)
	}
	return s
}

// Config materializes the spec into a runnable MEMSpot configuration
// with a freshly constructed policy. exact selects the retained
// math.Exp thermal path.
func (s Spec) Config(exact bool) (sim.MEMSpotConfig, error) {
	mix, err := workload.MixByName(s.MixName)
	if err != nil {
		return sim.MEMSpotConfig{}, err
	}
	cores := fbconfig.DefaultSimParams.Cores
	lim := fbconfig.DefaultLimits
	if s.Limits.AMBTDP != 0 {
		lim = s.Limits
	}
	levels := dtm.LevelsForTDP(lim.AMBTDP, lim.DRAMTDP)
	var pol dtm.Policy
	switch s.Policy {
	case "No-limit":
		pol = &dtm.NoLimit{Cores: cores}
	case "DTM-TS":
		pol = dtm.NewTS(lim, cores)
	case "DTM-BW":
		pol = dtm.NewBW(levels, cores)
	case "DTM-ACG":
		pol = dtm.NewACG(levels, cores)
	case "DTM-CDVFS":
		pol = dtm.NewCDVFS(levels, cores)
	case "DTM-COMB":
		pol = dtm.NewCOMB(levels, cores)
	default:
		return sim.MEMSpotConfig{}, fmt.Errorf("simtest: unknown policy %q", s.Policy)
	}
	return sim.MEMSpotConfig{
		Mix:          mix,
		Replicas:     s.Replicas,
		Policy:       pol,
		Cooling:      fbconfig.CoolingAOHS15,
		Ambient:      fbconfig.AmbientIsolated,
		InstrScale:   s.InstrScale,
		MaxSeconds:   s.MaxSeconds,
		SensorSeed:   s.SensorSeed,
		Limits:       s.Limits,
		ExactThermal: exact,
	}, nil
}

// RunBoth executes the spec through the fast path and the exact path,
// each with a fresh policy and a fresh synthetic rate store, and
// returns both results.
func RunBoth(s Spec) (fast, exact sim.MEMSpotResult, err error) {
	for i, isExact := range []bool{false, true} {
		cfg, cerr := s.Config(isExact)
		if cerr != nil {
			return fast, exact, cerr
		}
		res, rerr := sim.RunMix(cfg, trace.NewStore(trace.BuilderFunc(SyntheticRates)))
		if rerr != nil {
			return fast, exact, fmt.Errorf("simtest: %+v (exact=%v): %w", s, isExact, rerr)
		}
		if i == 0 {
			fast = res
		} else {
			exact = res
		}
	}
	return fast, exact, nil
}

// SyntheticRates returns deterministic plausible level-1 rates without
// running the cycle-driven simulator, mirroring the shape of real W1
// records; the differential workloads and the pinned MEMSpotWindow
// benchmark share it so both isolate the level-2 loop.
func SyntheticRates(dp trace.DesignPoint) (trace.Rates, error) {
	r := trace.Rates{Point: dp, PerApp: make(map[string]trace.AppRates)}
	for i, n := range dp.AppNames() {
		f := 1 + 0.1*float64(i)
		r.PerApp[n] = trace.AppRates{
			InstrPerSec:    2.2e9 * f,
			IPCRef:         0.55 * f,
			ReadGBps:       2.4 * f,
			WriteGBps:      0.9 * f,
			L2MissPerSec:   3.6e7 * f,
			L2AccessPerSec: 1.1e8 * f,
			MemBoundFrac:   math.Min(0.9, 0.45*f),
		}
		r.TotalReadGBps += 2.4 * f
		r.TotalWriteGBps += 0.9 * f
	}
	r.MeanLatencyNS = 180
	return r, nil
}
