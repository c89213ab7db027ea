// Snapshot/restore of a running MEMSpot at a DTM decision boundary. The
// prefix-sharing layer (internal/sweep/prefix) checkpoints the leader of
// a policy-sliced group here and resumes followers from the deepest
// checkpoint before their first divergent decision; correctness demands
// that a restored run continue bit-identically to one that never
// checkpointed, which the divergence differential suite in
// internal/simtest enforces.
//
// What is captured: simulated time and schedule cursors, the thermal
// state (model + ambient), the batch queue and per-core jobs, the live
// DTM action and overshoot flag, and the result accumulator (residency
// included: Snapshot writes the residency slices into the result's maps
// and Restore reads them back). What is deliberately excluded: the
// hot-loop scratch state (power/gating buffers), the run's design-point
// table — its entries depend only on the shared deterministic trace
// store, so they stay valid across a Restore — and the decay caches,
// which self-revalidate (see internal/thermal/snapshot.go).
//
// Runs with sensor noise enabled cannot be snapshotted: the sensor's
// math/rand state is not capturable, so a resumed run could not
// reproduce the noise sequence bit-for-bit.

package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dramtherm/internal/dtm"
	"dramtherm/internal/thermal"
	"dramtherm/internal/workload"
)

// JobState is the restorable state of one core's batch entry. A zero
// Name marks an idle core (its job queue ran dry).
type JobState struct {
	Name      string
	Remaining float64
	Total     float64
}

// MEMSpotState is the restorable state of a MEMSpot between windows at a
// DTM decision boundary. All fields are exported so the state crosses
// gob (segment-log checkpoint records) and fmt (canonical digest)
// unchanged.
type MEMSpotState struct {
	// WindowS pins the window length the snapshot was taken under;
	// Restore rejects a mismatch rather than resume on a different grid.
	WindowS float64

	Now     float64
	NextDTM float64
	NextRot float64
	NextRec float64
	Rot     int

	Steps     int64
	Decisions int

	Act dtm.Action
	Hot bool

	Queue []string   // pending profile names, in dispatch order
	Cores []JobState // one per core

	Thermal thermal.ModelState
	Ambient thermal.AmbientState

	Res MEMSpotResult
}

// Snapshot captures the run's state. It fails for sensor-noise runs
// (SensorSeed != 0), whose RNG state cannot be captured.
func (m *MEMSpot) Snapshot() (*MEMSpotState, error) {
	if m.sensor != nil {
		return nil, fmt.Errorf("sim: cannot snapshot a run with sensor noise (RNG state is not restorable)")
	}
	m.flushResidency()
	st := &MEMSpotState{
		WindowS:   m.cfg.WindowS,
		Now:       m.now,
		NextDTM:   m.nextDTM,
		NextRot:   m.nextRot,
		NextRec:   m.nextRec,
		Rot:       m.rot,
		Steps:     m.steps,
		Decisions: m.decisions,
		Act:       m.act,
		Hot:       m.hot,
		Thermal:   m.model.Snapshot(),
		Ambient:   m.amb.Snapshot(),
		Res:       cloneResult(m.res),
	}
	st.Queue = make([]string, len(m.queue))
	for i, slot := range m.queue {
		st.Queue[i] = m.profs[slot].Name
	}
	st.Cores = make([]JobState, len(m.cores))
	for i, j := range m.cores {
		if j != nil {
			st.Cores[i] = JobState{Name: j.prof.Name, Remaining: j.remaining, Total: j.total}
		}
	}
	return st, nil
}

// Restore overwrites the run's state from a snapshot taken on a run with
// the same configuration. The policy is untouched: the caller is
// responsible for bringing it to the matching internal state (the
// prefix sharer replays the recorded decision inputs into a fresh
// policy before restoring). The state is not consumed — multiple runs
// may restore from the same snapshot.
func (m *MEMSpot) Restore(st *MEMSpotState) error {
	if m.sensor != nil {
		return fmt.Errorf("sim: cannot restore a run with sensor noise")
	}
	if st.WindowS != m.cfg.WindowS {
		return fmt.Errorf("sim: restore with window %g s onto a run with window %g s", st.WindowS, m.cfg.WindowS)
	}
	if len(st.Cores) != len(m.cores) {
		return fmt.Errorf("sim: restore with %d cores onto a run with %d", len(st.Cores), len(m.cores))
	}
	for n := range st.Res.TimeAtCores {
		if n < 0 || n >= len(m.atCores) {
			return fmt.Errorf("sim: restore with residency at %d running cores onto a run with %d cores", n, len(m.cores))
		}
	}
	for f := range st.Res.TimeAtFreq {
		if f < 0 || f >= len(m.atFreq) {
			return fmt.Errorf("sim: restore with residency at DVFS level %d onto a run with %d levels", f, len(m.atFreq))
		}
	}
	queue := make([]uint8, len(st.Queue))
	for i, name := range st.Queue {
		slot, err := m.slotOf(name)
		if err != nil {
			return fmt.Errorf("sim: restore queue: %w", err)
		}
		queue[i] = slot
	}
	cores := make([]*job, len(st.Cores))
	for i, js := range st.Cores {
		if js.Name == "" {
			continue
		}
		slot, err := m.slotOf(js.Name)
		if err != nil {
			return fmt.Errorf("sim: restore core %d: %w", i, err)
		}
		cores[i] = &job{prof: m.profs[slot], slot: slot, remaining: js.Remaining, total: js.Total}
	}
	if err := m.model.Restore(st.Thermal); err != nil {
		return err
	}
	m.amb.Restore(st.Ambient)
	m.readHottest()

	m.queue = queue
	m.cores = cores
	m.now = st.Now
	m.nextDTM = st.NextDTM
	m.nextRot = st.NextRot
	m.nextRec = st.NextRec
	m.rot = st.Rot
	m.steps = st.Steps
	m.decisions = st.Decisions
	m.setAction(st.Act)
	m.hot = st.Hot
	m.res = cloneResult(st.Res)
	m.slotsStale = true
	for n := range m.atCores {
		m.atCores[n] = m.res.TimeAtCores[n]
	}
	for f := range m.atFreq {
		m.atFreq[f] = m.res.TimeAtFreq[f]
	}
	return nil
}

// slotOf returns the profile slot of the named application, giving a
// profile outside the run's mix a new slot.
func (m *MEMSpot) slotOf(name string) (uint8, error) {
	for slot, p := range m.profs {
		if p.Name == name {
			return uint8(slot), nil
		}
	}
	p, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	if len(m.profs) >= maxSlots {
		return 0, fmt.Errorf("sim: %s needs a profile slot past the level-2 limit of %d", name, maxSlots)
	}
	m.profs = append(m.profs, p)
	return uint8(len(m.profs) - 1), nil
}

// Digest returns the canonical digest of the state: SHA-256 over its
// full-precision rendering, truncated to 16 hex digits (the
// core.ConfigDigest idiom). fmt renders maps in sorted key order and
// floats in shortest round-trippable form, so the digest is
// deterministic and distinct bit patterns digest differently.
func (st *MEMSpotState) Digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *st)))
	return hex.EncodeToString(sum[:8])
}

// cloneResult deep-copies the accumulator so snapshot, live run, and any
// later restores never share trace slices or residency maps.
func cloneResult(r MEMSpotResult) MEMSpotResult {
	r.AMBTrace = append([]float64(nil), r.AMBTrace...)
	r.DRAMTrace = append([]float64(nil), r.DRAMTrace...)
	r.AmbientTrace = append([]float64(nil), r.AmbientTrace...)
	cores := make(map[int]float64, len(r.TimeAtCores))
	for k, v := range r.TimeAtCores {
		cores[k] = v
	}
	freq := make(map[int]float64, len(r.TimeAtFreq))
	for k, v := range r.TimeAtFreq {
		freq[k] = v
	}
	r.TimeAtCores, r.TimeAtFreq = cores, freq
	return r
}
