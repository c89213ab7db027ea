package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
)

// TestSnapshotResumeBitIdentical is the package-level statement of the
// checkpoint contract: capturing the state at a decision boundary and
// resuming it on a fresh machine must finish with a result bit-identical
// to the uninterrupted run. NoLimit is stateless, so no policy warming
// is involved — the prefix layer's policy-replay obligations are covered
// by internal/simtest's divergence suite.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	store := tinyStore()
	cold, err := RunMix(tinyConfig(t, &dtm.NoLimit{Cores: 4}), store)
	if err != nil {
		t.Fatal(err)
	}

	var st *MEMSpotState
	leader, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), store)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := leader.RunHooked(context.Background(), func(m *MEMSpot) error {
		if st == nil && m.Decisions() == 5 {
			s, serr := m.Snapshot()
			if serr != nil {
				t.Fatalf("snapshot at decision 5: %v", serr)
			}
			st = s
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("run finished before 5 decisions; shrink the hook threshold")
	}
	if !reflect.DeepEqual(cold, hooked) {
		t.Fatalf("hooked run diverged from plain run:\ncold:   %+v\nhooked: %+v", cold, hooked)
	}

	resumed, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := resumed.StepsTaken(); got != st.Steps {
		t.Fatalf("restored StepsTaken = %d, snapshot had %d", got, st.Steps)
	}
	res, err := resumed.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, res) {
		t.Fatalf("resumed run diverged from cold run:\ncold:    %+v\nresumed: %+v", cold, res)
	}
}

// TestSnapshotRefusesSensorNoise: noisy-sensor runs carry hidden RNG
// state the snapshot does not capture, so Snapshot must refuse rather
// than silently produce a non-reproducible checkpoint.
func TestSnapshotRefusesSensorNoise(t *testing.T) {
	cfg := tinyConfig(t, &dtm.NoLimit{Cores: 4})
	cfg.SensorSeed = 7
	ms, err := NewMEMSpot(cfg, tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Snapshot(); err == nil {
		t.Fatal("snapshot of a noisy-sensor run accepted")
	}
}

// TestSnapshotDigest: the digest is stable for one state and moves when
// the simulation does.
func TestSnapshotDigest(t *testing.T) {
	ms, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	var first, later *MEMSpotState
	if _, err := ms.RunHooked(context.Background(), func(m *MEMSpot) error {
		switch m.Decisions() {
		case 2:
			if first == nil {
				first, _ = m.Snapshot()
			}
		case 6:
			if later == nil {
				later, _ = m.Snapshot()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil || later == nil {
		t.Fatal("hooks did not fire")
	}
	if first.Digest() != first.Digest() {
		t.Fatal("digest not stable")
	}
	if len(first.Digest()) != 16 {
		t.Fatalf("digest %q is not 16 hex digits", first.Digest())
	}
	if first.Digest() == later.Digest() {
		t.Fatal("digests of different decisions collide")
	}
}

// TestRestoreValidation: snapshots only restore onto a machine with the
// same shape.
func TestRestoreValidation(t *testing.T) {
	ms, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ms.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	bad := *st
	bad.WindowS *= 2
	if err := other.Restore(&bad); err == nil {
		t.Fatal("window mismatch accepted")
	}
	bad = *st
	bad.Cores = bad.Cores[:len(bad.Cores)-1]
	if err := other.Restore(&bad); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
	if err := other.Restore(st); err != nil {
		t.Fatalf("clean restore rejected: %v", err)
	}
}

// TestRestoreResidencyValidation: residency outside the run's core count
// or DVFS table is refused before any state changes.
func TestRestoreResidencyValidation(t *testing.T) {
	ms, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ms.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]MEMSpotResult{
		"cores": {TimeAtCores: map[int]float64{5: 1}},
		"freq":  {TimeAtFreq: map[int]float64{len(fbconfig.DTMDVFS): 1}},
	} {
		bad := *st
		bad.Res = res
		if err := ms.Restore(&bad); err == nil {
			t.Errorf("%s: out-of-range residency accepted", name)
		}
	}
	if got := fmt.Sprint(ms.Now(), ms.StepsTaken()); got != "0 0" {
		t.Fatalf("refused restore moved the run to %s", got)
	}
}

// TestRestoreForeignProfile: a snapshot may carry applications outside
// the run's mix; Restore gives them profile slots of their own and the
// run continues on them.
func TestRestoreForeignProfile(t *testing.T) {
	ms, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ms.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *st
	bad.Cores = append([]JobState(nil), st.Cores...)
	bad.Cores[0].Name = "nosuch"
	if err := ms.Restore(&bad); err == nil {
		t.Fatal("unknown application accepted")
	}
	foreign := *st
	foreign.Cores = append([]JobState(nil), st.Cores...)
	foreign.Cores[1].Name = "art" // a W2 application on a W1 run
	if err := ms.Restore(&foreign); err != nil {
		t.Fatal(err)
	}
	if err := ms.StepWindow(); err != nil {
		t.Fatal(err)
	}
	after, err := ms.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if after.Cores[1].Name != "art" || after.Cores[1].Remaining >= foreign.Cores[1].Remaining {
		t.Fatalf("core 1 after a window: %+v, restored %+v", after.Cores[1], foreign.Cores[1])
	}
}
