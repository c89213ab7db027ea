package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/trace"
)

// level2OracleDigests pins the full MEMSpotResult of every run of the
// oracle grid (W1 × DTM-TS/BW/ACG/CDVFS × three AMB limit points) to
// SHA-256 digests of its %+v rendering, recorded (on amd64) on the
// simulator before the per-run design-point table replaced the one-entry
// memos. The fast/exact differential oracles share MEMSpot's rate lookup,
// so only a pinned value catches a lookup bug that hits both paths alike.
var level2OracleDigests = map[string]string{
	"DTM-TS@110":      "8a9885acefada04a4f8951bf6b64159f3d7dfa900d20385f3dfc9ef1f7eef3dd",
	"DTM-BW@110":      "54a515acd90a446f6985ea22e97400410bc5967da45d712a739f84a683f5dff8",
	"DTM-ACG@110":     "b5233a609fc4a605eb842ad9f0f9e17f3188c7050315d922129124793e6f1e61",
	"DTM-CDVFS@110":   "778b3fde9b0562307840693a2ebfc4d0bf84c6b3d795c42b012be311f8c3b9e2",
	"DTM-TS@109.5":    "2577291af5dad3c2d7f6226f23ca710c2d22d2832909b7f44b9ddc2a96c7415c",
	"DTM-BW@109.5":    "8d635bc25007900805ce6b42ed1e07af99a8fa9ae16e80e8e5675c690338451e",
	"DTM-ACG@109.5":   "eb2543016e84b93f78af025257c5783fd5b629f10e46d48b45bde1f16b2a53b1",
	"DTM-CDVFS@109.5": "b7c2b3ff37a7f3321fe3b950be100f32671dd921085b12c0e45f6c0362b8ef49",
	"DTM-TS@109":      "4eabdc6b0baf8ebd2af5400ea42b5e8f5209e9ccccf6edffde697a13ded8fd9a",
	"DTM-BW@109":      "1cf26b900838f919559e823224f21d7a9a3c720f28dcc454fea2b89b02768748",
	"DTM-ACG@109":     "4e13afd8ee40034a8e6179f31cb18c6080aa1dad7fba28e0974ff1ef0a628087",
	"DTM-CDVFS@109":   "58add2d3a30c459f3d22490d5c9fda88c343946359f0ad3932c9afb3adbbe611",
}

// oraclePolicy builds the named Chapter 4 policy the way core.System
// does for a limit sweep.
func oraclePolicy(t *testing.T, name string, lim fbconfig.ThermalLimits, cores int) dtm.Policy {
	t.Helper()
	levels := dtm.LevelsForTDP(lim.AMBTDP, lim.DRAMTDP)
	switch name {
	case "DTM-TS":
		return dtm.NewTS(lim, cores)
	case "DTM-BW":
		return dtm.NewBW(levels, cores)
	case "DTM-ACG":
		return dtm.NewACG(levels, cores)
	case "DTM-CDVFS":
		return dtm.NewCDVFS(levels, cores)
	}
	t.Fatalf("unknown policy %q", name)
	return nil
}

// throttleCounter counts the decisions of a policy that leave the
// unthrottled design point.
type throttleCounter struct {
	dtm.Policy
	cores, n int
}

func (c *throttleCounter) Decide(in dtm.Input) dtm.Action {
	a := c.Policy.Decide(in)
	if a.MemOff || a.FreqIndex > 0 || a.ActiveCores < c.cores || a.BWCapGBps < dtm.NoCap() {
		c.n++
	}
	return a
}

// TestLevel2PinnedDigests replays the grid-warm benchmark grid (at
// InstrScale 0.02, over a level-1 store with a 0.1 ms + 0.1 ms window)
// and compares each run's full result with its pinned digest.
func TestLevel2PinnedDigests(t *testing.T) {
	l1 := NewLevel1(1)
	l1.WarmupNS, l1.MeasureNS = 1e5, 1e5
	store := trace.NewStore(l1)
	limits := []fbconfig.ThermalLimits{
		{AMBTDP: 110, AMBTRP: 109, DRAMTDP: 85, DRAMTRP: 84},
		{AMBTDP: 109.5, AMBTRP: 108.5, DRAMTDP: 85, DRAMTRP: 84},
		{AMBTDP: 109, AMBTRP: 108, DRAMTDP: 85, DRAMTRP: 84},
	}
	cores := fbconfig.DefaultSimParams.Cores
	throttled := 0
	for _, lim := range limits {
		for _, pol := range []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"} {
			key := fmt.Sprintf("%s@%g", pol, lim.AMBTDP)
			tc := &throttleCounter{Policy: oraclePolicy(t, pol, lim, cores), cores: cores}
			res, err := RunMix(MEMSpotConfig{
				Mix:        w1(t),
				Replicas:   50,
				Policy:     tc,
				Cooling:    fbconfig.CoolingAOHS15,
				Ambient:    fbconfig.AmbientIsolated,
				Limits:     lim,
				InstrScale: 0.02,
			}, store)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if tc.n > 0 {
				throttled++
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
			got := hex.EncodeToString(sum[:])
			if want := level2OracleDigests[key]; got != want {
				t.Errorf("%s: result digest %s, pinned %s", key, got, want)
			}
		}
	}
	// The oracle is only as strong as the DTM activity it replays: every
	// run must leave the unthrottled design point.
	if throttled < 12 {
		t.Errorf("only %d of 12 runs throttled; the grid no longer exercises DTM", throttled)
	}
}
