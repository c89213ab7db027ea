package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
)

// TestRunCtxCancelledBeforeStart: a run whose context is already done
// takes no window.
func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ms, err := NewMEMSpot(tinyConfig(t, &dtm.NoLimit{Cores: 4}), tinyStore())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ms.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Seconds != 0 || ms.StepsTaken() != 0 || ms.Decisions() != 0 {
		t.Fatalf("cancelled run advanced: %g s, %d windows, %d decisions", res.Seconds, ms.StepsTaken(), ms.Decisions())
	}
}

// cancelAfter cancels its context from inside the policy once it has
// taken n decisions.
type cancelAfter struct {
	dtm.Policy
	n, taken int
	cancel   context.CancelFunc
}

func (c *cancelAfter) Decide(in dtm.Input) dtm.Action {
	c.taken++
	if c.taken == c.n {
		c.cancel()
	}
	return c.Policy.Decide(in)
}

// TestRunCtxCancelledByPolicy: a cancel raised during a window stops the
// run at the next window boundary, and the partial result equals the
// state of a run stepped exactly that far, residency included.
func TestRunCtxCancelledByPolicy(t *testing.T) {
	const n = 40
	store := tinyStore()
	lim := fbconfig.ThermalLimits{AMBTDP: 103.5, AMBTRP: 102.5, DRAMTDP: 85, DRAMTRP: 84}
	newRun := func(p dtm.Policy) *MEMSpot {
		cfg := tinyConfig(t, p)
		cfg.Limits = lim
		ms, err := NewMEMSpot(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ms := newRun(&cancelAfter{Policy: dtm.NewACG(dtm.LevelsForTDP(lim.AMBTDP, lim.DRAMTDP), 4), n: n, cancel: cancel})
	res, err := ms.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ms.Decisions() != n || ms.StepsTaken() != n {
		t.Fatalf("stopped after %d decisions and %d windows, want %d of each", ms.Decisions(), ms.StepsTaken(), n)
	}
	if res.Seconds != ms.Now() || res.Seconds == 0 {
		t.Fatalf("partial result at %g s, run at %g s", res.Seconds, ms.Now())
	}

	ref := newRun(dtm.NewACG(dtm.LevelsForTDP(lim.AMBTDP, lim.DRAMTDP), 4))
	for i := 0; i < n; i++ {
		if err := ref.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := st.Res
	want.Seconds = ref.Now()
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("cancelled result differs from %d stepped windows:\n got %+v\nwant %+v", n, res, want)
	}
	if len(res.TimeAtCores) == 0 || len(res.TimeAtFreq) == 0 {
		t.Fatalf("partial result lost its residency: %v, %v", res.TimeAtCores, res.TimeAtFreq)
	}
}
