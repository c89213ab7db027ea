// MEMSpot: the level-2 power/thermal simulator of §4.3.1. It consumes
// trace.Rates records through a Store (building them on demand via
// Level1), steps the Chapter 3 power and thermal models in fixed windows,
// runs the workload batch to completion, and invokes the DTM policy at
// every DTM interval.

package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/power"
	"dramtherm/internal/thermal"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// MEMSpotConfig configures one level-2 run.
type MEMSpotConfig struct {
	Mix      workload.Mix
	Replicas int // copies of each application in the batch (paper: 50)
	Policy   dtm.Policy

	Cooling fbconfig.Cooling
	Ambient fbconfig.Ambient
	Limits  fbconfig.ThermalLimits
	Params  fbconfig.SimParams
	CPU     fbconfig.CPUPower
	DVFS    []fbconfig.DVFSLevel

	WindowS       float64 // simulation window (default 10 ms)
	DTMIntervalS  float64 // policy invocation period (default 10 ms)
	DTMOverheadS  float64 // per-invocation overhead (default 25 µs)
	RotatePeriodS float64 // ACG round-robin rotation period (default 100 ms)
	RecordPeriodS float64 // temperature trace sampling (default 1 s)
	MaxSeconds    float64 // safety bound (default 50,000 s)
	InstrScale    float64 // scales application lengths (tests use <1)

	// SensorSeed enables sensor noise when nonzero (Chapter 5 platform
	// runs); zero keeps the Chapter 4 noiseless simulation sensors.
	SensorSeed int64

	// ExactThermal selects the retained per-step math.Exp thermal path
	// (thermal.Model.AdvanceExact) instead of the cached-decay fast path.
	// The two agree bit-for-bit today; the flag exists so the
	// differential harness (internal/simtest) can drive both through the
	// identical simulation stack.
	ExactThermal bool
}

// applyDefaults fills zero fields.
func (c *MEMSpotConfig) applyDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 50
	}
	if c.WindowS == 0 {
		c.WindowS = 0.01
	}
	if c.DTMIntervalS == 0 {
		c.DTMIntervalS = 0.01
	}
	if c.DTMOverheadS == 0 {
		c.DTMOverheadS = 25e-6
	}
	if c.RotatePeriodS == 0 {
		c.RotatePeriodS = 0.1
	}
	if c.RecordPeriodS == 0 {
		c.RecordPeriodS = 1
	}
	if c.MaxSeconds == 0 {
		c.MaxSeconds = 50000
	}
	if c.InstrScale == 0 {
		c.InstrScale = 1
	}
	if c.Params.Cores == 0 {
		c.Params = fbconfig.DefaultSimParams
	}
	if c.CPU.MaxWatt == 0 {
		c.CPU = fbconfig.DefaultCPUPower
	}
	if len(c.DVFS) == 0 {
		c.DVFS = fbconfig.DTMDVFS
	}
	if c.Limits.AMBTDP == 0 {
		c.Limits = fbconfig.DefaultLimits
	}
}

// MEMSpotResult aggregates one run.
type MEMSpotResult struct {
	Seconds   float64
	TimedOut  bool
	Completed int // jobs finished

	ReadGB, WriteGB float64
	L2Misses        float64
	L2Accesses      float64

	MemEnergyJ float64
	CPUEnergyJ float64

	MaxAMB, MaxDRAM float64
	Overshoots      int // episodes in which a DTM decision observed T ≥ TDP

	// Sampled once per RecordPeriodS.
	AMBTrace     []float64
	DRAMTrace    []float64
	AmbientTrace []float64

	// Residency in seconds.
	TimeAtCores map[int]float64
	TimeAtFreq  map[int]float64
	TimeMemOff  float64
}

// TotalTrafficGB returns read+write traffic.
func (r MEMSpotResult) TotalTrafficGB() float64 { return r.ReadGB + r.WriteGB }

// job is one batch entry.
type job struct {
	prof      *workload.Profile
	slot      uint8 // index of prof in MEMSpot.profs
	remaining float64
	total     float64
}

// maxKeyCores and maxSlots bound what a dpKey can describe: the cores of
// the machine and the distinct profiles of one run.
const (
	maxKeyCores = 16
	maxSlots    = math.MaxUint8
)

// dpKey identifies a window's design point within one run, without
// strings: the profile slot running on each core (slot+1; 0 for an idle
// or gated core), the bandwidth cap's bits, and the clamped DVFS index
// shifted left of the memory-off bit. Equal keys canonicalize to equal
// trace.DesignPoints, so the key can stand in for the store's. The key
// has no padding, so the map hashes it as one block of memory.
type dpKey struct {
	slots   [maxKeyCores]uint8
	capBits uint64
	mode    uint64
}

// dpEntry is a resolved design point: the cores running under it, in
// core order, and each one's per-instance rates.
type dpEntry struct {
	running []int
	apps    []trace.AppRates
}

// MEMSpot is the level-2 simulator instance.
type MEMSpot struct {
	cfg   MEMSpotConfig
	store *trace.Store

	model   *thermal.Model
	amb     *thermal.AmbientModel
	sensor  *thermal.Sensor
	profs   []*workload.Profile // slot → profile: the mix, then any Restore adds
	queue   []uint8             // pending profile slots, in dispatch order
	cores   []*job
	act     dtm.Action
	freqIdx int     // act.FreqIndex clamped to the DVFS table
	hot     bool    // currently in an overshoot episode
	topAMB  float64 // hottest AMB temperature after the last window
	topDRAM float64 // hottest DRAM temperature after the last window
	rot     int
	now     float64
	nextDTM float64
	nextRot float64
	nextRec float64

	// Hot-loop state, reused across windows so the steady-state step
	// allocates nothing and touches no string: the precomputed channel
	// power model and DVFS processor power, the power/gating/activity
	// buffers, the current window's design-point key (its slots are
	// recomputed only when a job starts or the gating changes, the rest
	// when the action changes), the run's table of resolved design points
	// (the store and key canonicalization are met once per distinct
	// point, not once per window), and the residency accumulators behind
	// res.TimeAtCores (index: running cores) and res.TimeAtFreq (index:
	// DVFS level), written into those maps by result.
	chanModel   *power.ChannelModel
	dvfsWatt    []float64 // processor power at each DVFS level, cores running
	pwBuf       []power.DIMMPower
	gatedBuf    []bool
	activityBuf []thermal.CoreActivity
	key         dpKey
	slotsStale  bool // a job started or ended since key.slots was computed
	gatedRot    int  // rotation key.slots was computed for
	gatedActive int  // ActiveCores key.slots was computed for
	points      map[dpKey]*dpEntry
	atCores     []float64
	atFreq      []float64

	steps     int64 // windows on the simulated timeline (inherited on Restore)
	decisions int   // DTM decisions taken so far; index of the next decision

	res MEMSpotResult
}

// NewMEMSpot builds a run over the given rate store.
func NewMEMSpot(cfg MEMSpotConfig, store *trace.Store) (*MEMSpot, error) {
	cfg.applyDefaults()
	if store == nil {
		return nil, fmt.Errorf("sim: nil trace store")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	if cfg.Params.Cores > maxKeyCores {
		return nil, fmt.Errorf("sim: %d cores exceed the level-2 limit of %d", cfg.Params.Cores, maxKeyCores)
	}
	profs, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	if len(profs) > maxSlots {
		return nil, fmt.Errorf("sim: mix %s has %d applications, over the level-2 limit of %d", cfg.Mix.Name, len(profs), maxSlots)
	}

	m := &MEMSpot{cfg: cfg, store: store, profs: profs}
	inlet := cfg.Ambient.Inlet(cfg.Cooling)
	m.amb = thermal.NewAmbientModel(cfg.Ambient, inlet)
	idle := power.DIMMPower{
		AMB:  fbconfig.DefaultAMBPower.IdleOther,
		DRAM: fbconfig.DefaultDRAMPower.Static,
	}
	m.model = thermal.NewModel(cfg.Cooling, inlet, cfg.Params.DIMMsPerChannel, idle)
	if cfg.SensorSeed != 0 {
		m.sensor = thermal.NewSensor(rand.New(rand.NewSource(cfg.SensorSeed)))
	}
	cm, err := power.NewChannelModel(fbconfig.DefaultDRAMPower, fbconfig.DefaultAMBPower,
		power.EvenShares(cfg.Params.DIMMsPerChannel))
	if err != nil {
		return nil, err
	}
	m.chanModel = cm
	m.dvfsWatt = make([]float64, len(cfg.DVFS))
	for f, lv := range cfg.DVFS {
		m.dvfsWatt[f] = power.CPUWatts(cfg.CPU, power.CPUState{
			ActiveCores: 1, TotalCores: cfg.Params.Cores, Level: lv, UseDVFS: true,
		})
	}

	// Batch queue: Replicas rounds of the mix in round-robin order
	// (§4.3.2: jobs assigned to freed cores round-robin).
	for r := 0; r < cfg.Replicas; r++ {
		for slot := range profs {
			m.queue = append(m.queue, uint8(slot))
		}
	}
	m.cores = make([]*job, cfg.Params.Cores)
	for i := range m.cores {
		m.dispatch(i)
	}

	cfg.Policy.Reset()
	m.setAction(dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: cfg.Params.Cores})
	m.res.TimeAtCores = make(map[int]float64)
	m.res.TimeAtFreq = make(map[int]float64)
	m.points = make(map[dpKey]*dpEntry)
	m.atCores = make([]float64, len(m.cores)+1)
	m.atFreq = make([]float64, len(cfg.DVFS))
	m.readHottest()
	return m, nil
}

// dispatch pops the next job onto core i, if any.
func (m *MEMSpot) dispatch(i int) {
	m.slotsStale = true
	if len(m.queue) == 0 {
		m.cores[i] = nil
		return
	}
	slot := m.queue[0]
	m.queue = m.queue[1:]
	p := m.profs[slot]
	total := p.Instructions() * m.cfg.InstrScale
	m.cores[i] = &job{prof: p, slot: slot, remaining: total, total: total}
}

// done reports batch completion.
func (m *MEMSpot) done() bool {
	if len(m.queue) > 0 {
		return false
	}
	for _, j := range m.cores {
		if j != nil {
			return false
		}
	}
	return true
}

// readHottest caches the model's hottest AMB and DRAM temperatures, which
// the next DTM decision, the running maxima and the trace sampler read.
func (m *MEMSpot) readHottest() {
	m.topAMB, m.topDRAM = m.model.HottestAMB(), m.model.HottestDRAM()
}

// setAction installs a DTM action and the parts of the design-point key
// it determines: the clamped DVFS index, the bandwidth cap and MemOff.
func (m *MEMSpot) setAction(a dtm.Action) {
	m.act = a
	f := a.FreqIndex
	if f < 0 {
		f = 0
	}
	if f >= len(m.cfg.DVFS) {
		f = len(m.cfg.DVFS) - 1
	}
	m.freqIdx = f
	m.key.capBits = math.Float64bits(a.BWCapGBps)
	m.key.mode = uint64(f) << 1
	if a.MemOff {
		m.key.mode |= 1
	}
}

// regate brings the per-core key slots up to date with the jobs and with
// the cores gated under the current action and rotation.
func (m *MEMSpot) regate() {
	if !m.slotsStale && m.rot == m.gatedRot && m.act.ActiveCores == m.gatedActive {
		return
	}
	gated := m.gatedSet()
	for i, j := range m.cores {
		m.key.slots[i] = 0
		if j != nil && !gated[i] {
			m.key.slots[i] = j.slot + 1
		}
	}
	m.slotsStale, m.gatedRot, m.gatedActive = false, m.rot, m.act.ActiveCores
}

// gatedSet returns which cores are gated under the current action with
// round-robin rotation offset. The returned slice is scratch state
// valid until the next call.
func (m *MEMSpot) gatedSet() []bool {
	n := m.act.ActiveCores
	c := len(m.cores)
	if n > c {
		n = c
	}
	if n < 0 {
		n = 0
	}
	if cap(m.gatedBuf) < c {
		m.gatedBuf = make([]bool, c)
	}
	gated := m.gatedBuf[:c]
	for i := range gated {
		gated[i] = false
	}
	for k := 0; k < c-n; k++ {
		gated[(m.rot+k)%c] = true
	}
	return gated
}

// resolve returns the table entry of the window's design point: the
// ungated cores' jobs under the current action. Only the first window of
// a run to meet a design point canonicalizes its application names and
// asks the store for its rates.
func (m *MEMSpot) resolve() (*dpEntry, error) {
	m.regate()
	if e := m.points[m.key]; e != nil {
		return e, nil
	}
	e := &dpEntry{}
	var names []string
	for i, s := range m.key.slots[:len(m.cores)] {
		if s != 0 {
			e.running = append(e.running, i)
			names = append(names, m.profs[s-1].Name)
		}
	}
	rates, err := m.store.Get(trace.DesignPoint{
		Apps:      trace.CanonApps(names),
		FreqGHz:   m.cfg.DVFS[m.freqIdx].FreqGHz,
		BWCapGBps: m.act.BWCapGBps,
		MemOff:    m.act.MemOff,
	})
	if err != nil {
		return nil, err
	}
	e.apps = make([]trace.AppRates, len(names))
	for n, name := range names {
		e.apps[n] = rates.PerApp[name]
	}
	m.points[m.key] = e
	return e, nil
}

// flushResidency writes the residency slices into the result's maps. A
// slot that no window reached stays out of its map, as it would if each
// window wrote the map directly.
func (m *MEMSpot) flushResidency() {
	for n, s := range m.atCores {
		if s != 0 {
			m.res.TimeAtCores[n] = s
		}
	}
	for f, s := range m.atFreq {
		if s != 0 {
			m.res.TimeAtFreq[f] = s
		}
	}
}

// result returns the accumulator as of the current window.
func (m *MEMSpot) result() MEMSpotResult {
	m.flushResidency()
	m.res.Seconds = m.now
	return m.res
}

// Run executes the batch to completion (or MaxSeconds) and returns the
// result.
func (m *MEMSpot) Run() (MEMSpotResult, error) {
	return m.RunCtx(context.Background())
}

// StepWindow advances the simulation by exactly one window. It is the
// per-timestep unit of the level-2 hot loop, exposed for the
// differential test harness (internal/simtest) and the pinned
// benchmarks (cmd/benchsnap); normal callers use Run/RunCtx.
func (m *MEMSpot) StepWindow() error { return m.step() }

// Done reports whether the batch has completed (all jobs finished).
func (m *MEMSpot) Done() bool { return m.done() }

// Now returns the current simulated time in seconds.
func (m *MEMSpot) Now() float64 { return m.now }

// Window returns the simulation window length in seconds.
func (m *MEMSpot) Window() float64 { return m.cfg.WindowS }

// StepsTaken counts the windows on the simulated timeline so far,
// including windows inherited through Restore rather than executed here.
func (m *MEMSpot) StepsTaken() int64 { return m.steps }

// Decisions counts the DTM decisions taken so far — equally, the index
// of the next decision the policy will be asked for.
func (m *MEMSpot) Decisions() int { return m.decisions }

// RunCtx is Run with cancellation: the simulation loop aborts between
// windows as soon as ctx is done, returning the context error and the
// partial result accumulated so far.
func (m *MEMSpot) RunCtx(ctx context.Context) (MEMSpotResult, error) {
	return m.RunHooked(ctx, nil)
}

// RunHooked is RunCtx with an optional hook fired at every DTM decision
// boundary, immediately before the window that takes the decision. The
// prefix-sharing layer (internal/sweep/prefix) uses it to snapshot the
// simulator between policy decisions; a hook error aborts the run. A nil
// hook makes RunHooked identical to RunCtx.
func (m *MEMSpot) RunHooked(ctx context.Context, hook func(*MEMSpot) error) (MEMSpotResult, error) {
	cancel := ctx.Done()
	for !m.done() {
		select {
		case <-cancel:
			return m.result(), ctx.Err()
		default:
		}
		if m.now >= m.cfg.MaxSeconds {
			m.res.TimedOut = true
			break
		}
		if hook != nil && m.now >= m.nextDTM {
			if err := hook(m); err != nil {
				return m.result(), err
			}
		}
		if err := m.step(); err != nil {
			return m.result(), err
		}
	}
	return m.result(), nil
}

// step advances one window.
func (m *MEMSpot) step() error {
	win := m.cfg.WindowS
	overheadThisWindow := 0.0

	// DTM decision.
	if m.now >= m.nextDTM {
		ambR, dramR := m.topAMB, m.topDRAM
		if m.sensor != nil {
			ambR, dramR = m.sensor.Read(ambR), m.sensor.Read(dramR)
		}
		over := ambR >= m.cfg.Limits.AMBTDP || dramR >= m.cfg.Limits.DRAMTDP
		if over && !m.hot {
			m.res.Overshoots++
		}
		m.hot = over
		m.setAction(m.cfg.Policy.Decide(dtm.Input{
			AMB: ambR, DRAM: dramR, Now: m.now, Dt: m.cfg.DTMIntervalS,
		}))
		m.decisions++
		m.nextDTM += m.cfg.DTMIntervalS
		overheadThisWindow = m.cfg.DTMOverheadS
	}
	// ACG rotation for fairness (§4.2.2).
	if m.now >= m.nextRot {
		m.rot++
		m.nextRot += m.cfg.RotatePeriodS
	}

	freqIdx := m.freqIdx
	lv := m.cfg.DVFS[freqIdx]

	// Running combination → design point → rates.
	point, err := m.resolve()
	if err != nil {
		return err
	}
	running := point.running

	// Progress and traffic.
	effWin := win - overheadThisWindow
	if effWin < 0 {
		effWin = 0
	}
	var readG, writeG float64 // GB/s aggregates
	activity := m.activityBuf[:0]
	for n, i := range running {
		j := m.cores[i]
		ar := point.apps[n]
		if ar.InstrPerSec <= 0 {
			continue
		}
		progress := 1 - j.remaining/j.total
		mul := j.prof.PhaseMul(progress)
		den := 1 - ar.MemBoundFrac + ar.MemBoundFrac*mul
		if den <= 0 {
			den = 1
		}
		rate := ar.InstrPerSec / den
		ratio := rate / ar.InstrPerSec
		readG += ar.ReadGBps * mul * ratio
		writeG += ar.WriteGBps * mul * ratio
		m.res.L2Misses += ar.L2MissPerSec * mul * ratio * effWin
		m.res.L2Accesses += ar.L2AccessPerSec * mul * ratio * effWin
		j.remaining -= rate * effWin
		activity = append(activity, thermal.CoreActivity{
			Volt: lv.Volt, IPC: ar.IPCRef * ratio,
		})
		if j.remaining <= 0 {
			m.res.Completed++
			m.dispatch(i)
		}
	}
	m.activityBuf = activity
	m.res.ReadGB += readG * win
	m.res.WriteGB += writeG * win

	// Power: the precomputed channel model evaluates the same arithmetic
	// as power.ChannelWatts with even shares, without re-deriving the
	// share geometry or allocating per window.
	pw := m.chanModel.WattsInto(m.pwBuf[:0],
		readG/float64(m.cfg.Params.PhysicalChannels),
		writeG/float64(m.cfg.Params.PhysicalChannels))
	m.pwBuf = pw
	var memW float64
	for _, p := range pw {
		memW += (p.AMB + p.DRAM) * float64(m.cfg.Params.PhysicalChannels)
	}
	m.res.MemEnergyJ += memW * win

	cpuW := m.cpuWatts(len(running))
	m.res.CPUEnergyJ += cpuW * win

	// Thermal.
	if m.cfg.ExactThermal {
		m.model.Ambient = m.amb.AdvanceExact(activity, win)
		if err := m.model.AdvanceExact(pw, win); err != nil {
			return err
		}
	} else {
		m.model.Ambient = m.amb.Advance(activity, win)
		if err := m.model.Advance(pw, win); err != nil {
			return err
		}
	}
	m.readHottest()
	if m.topAMB > m.res.MaxAMB {
		m.res.MaxAMB = m.topAMB
	}
	if m.topDRAM > m.res.MaxDRAM {
		m.res.MaxDRAM = m.topDRAM
	}

	// Residency and traces.
	if m.act.MemOff {
		m.res.TimeMemOff += win
	}
	m.atCores[len(running)] += win
	m.atFreq[freqIdx] += win
	if m.now >= m.nextRec {
		m.res.AMBTrace = append(m.res.AMBTrace, m.topAMB)
		m.res.DRAMTrace = append(m.res.DRAMTrace, m.topDRAM)
		m.res.AmbientTrace = append(m.res.AmbientTrace, m.amb.T)
		m.nextRec += m.cfg.RecordPeriodS
	}

	m.now += win
	m.steps++
	return nil
}

// cpuWatts evaluates Table 4.4 for the current action.
func (m *MEMSpot) cpuWatts(runningCores int) float64 {
	if m.act.MemOff || runningCores == 0 {
		// Stalled or fully gated processor: HALT power.
		return m.cfg.CPU.IdleWatt
	}
	if m.act.FreqIndex > 0 {
		// The DVFS column does not depend on how many cores run.
		return m.dvfsWatt[m.freqIdx]
	}
	return m.cfg.CPU.ActiveCoresWatt(runningCores)
}

// RunMix is the high-level helper: build MEMSpot, run it, return results.
func RunMix(cfg MEMSpotConfig, store *trace.Store) (MEMSpotResult, error) {
	return RunMixCtx(context.Background(), cfg, store)
}

// RunMixCtx is RunMix with cancellation.
func RunMixCtx(ctx context.Context, cfg MEMSpotConfig, store *trace.Store) (MEMSpotResult, error) {
	ms, err := NewMEMSpot(cfg, store)
	if err != nil {
		return MEMSpotResult{}, err
	}
	return ms.RunCtx(ctx)
}

// NoLimitRuntime runs the mix with the No-limit pseudo-policy and an
// artificially cold ambient so no thermal constraint binds; it is the
// normalization baseline of the paper's figures.
func NoLimitRuntime(cfg MEMSpotConfig, store *trace.Store) (MEMSpotResult, error) {
	cfg.Policy = &dtm.NoLimit{Cores: coresOf(cfg)}
	// The baseline machine is identical; only the thermal response is
	// ignored, which NoLimit already guarantees (it never throttles).
	return RunMix(cfg, store)
}

func coresOf(cfg MEMSpotConfig) int {
	if cfg.Params.Cores > 0 {
		return cfg.Params.Cores
	}
	return fbconfig.DefaultSimParams.Cores
}
