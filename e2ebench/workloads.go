package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/exp"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/sweep"
	"dramtherm/internal/trace"
)

// bench is one invocation: the workload, its inputs, and the state its
// passes share.
type bench struct {
	w          *workload
	seed       int64
	instrScale float64 // application-length scale; 1 except in the count test

	// grid-warm only: the design-point records and output digest of the
	// cold fill pass.
	fill       []trace.Rates
	fillDigest string
}

// workload is one closed-loop batch job. A pass is everything the job's
// user waits for; set-up is what has to exist before the first request.
type workload struct {
	name    string
	workers int // simulation workers of the measured engine
	config  func(b *bench) core.Config
	// prepare runs once per invocation before any set-up and is not
	// timed (grid-warm's cold fill pass); nil for none.
	prepare func(b *bench) error
	setup   func(b *bench) (*instance, error)
	// level2 replays the pass's level-2 runs in process on eng, whose
	// trace store already holds every design point the pass needs.
	level2 func(b *bench, eng *sweep.Engine) error
}

// instance is one set-up workload, ready for one pass.
type instance struct {
	sys   *core.System
	eng   *sweep.Engine
	pass  func(ctx context.Context, tr *tracer) outcome
	close func()
}

// outcome is what one pass produced.
type outcome struct {
	attempted, failed int
	digest            string   // SHA-256 of the rendered output
	problems          []string // failed output checks
	// grid-cold only: the client's request time and the server's own
	// wall_seconds for the sweep behind it.
	requestS, sweepS float64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// mismatch records a failed output check. It fails one more operation,
// as long as some attempted operation still counts as successful.
func (o *outcome) mismatch(format string, args ...any) {
	o.fail(format, args...)
	if o.failed < o.attempted {
		o.failed++
	}
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- repro-quick: the paper reproduction, as memtherm -run … -quick ----

// reproDrivers run serially in this order; three are Chapter 5
// (internal/platform) drivers.
var reproDrivers = []string{"fig4.2", "fig4.5", "fig5.4", "fig5.5", "fig5.15"}

func init() {
	register(&workload{
		name:    "repro-quick",
		workers: 1,
		config: func(b *bench) core.Config {
			cfg := exp.RunnerConfig(true)
			cfg.Seed = b.seed
			cfg.InstrScale = b.instrScale
			return cfg
		},
		setup: func(b *bench) (*instance, error) {
			sys := core.NewSystem(b.w.config(b))
			eng := sweep.NewEngine(sys, b.w.workers)
			r := exp.NewRunnerFor(eng, true)
			return &instance{sys: sys, eng: eng, close: func() {},
				pass: func(ctx context.Context, tr *tracer) outcome {
					return runDrivers(r, reproDrivers, tr)
				}}, nil
		},
		level2: func(b *bench, eng *sweep.Engine) error {
			// Only the Chapter 4 drivers run on the engine; the platform
			// stores of the Chapter 5 drivers are private to exp.Runner.
			out := runDrivers(exp.NewRunnerFor(eng, true), reproDrivers[:2], nil)
			if len(out.problems) > 0 {
				return fmt.Errorf("%s", strings.Join(out.problems, "; "))
			}
			return nil
		},
	})
}

// runDrivers runs the drivers serially, one operation each, and digests
// their rendered tables and figures (memtherm's timing header excluded).
func runDrivers(r *exp.Runner, ids []string, tr *tracer) outcome {
	var out outcome
	h := sha256.New()
	for _, id := range ids {
		out.attempted++
		d, err := exp.Lookup(id)
		if err != nil {
			out.failed++
			out.fail("%v", err)
			continue
		}
		end := tr.open("exp." + id)
		res, err := d.Run(r)
		end()
		if err != nil {
			out.failed++
			out.fail("%s: %v", id, err)
			continue
		}
		fmt.Fprintf(h, "==== %s\n%s", id, res.String())
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// ---- grid-cold: one cold sweep served over HTTP ----

var coldGrid = sweep.Grid{
	Mixes:    []string{"W1", "W2"},
	Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
}

func init() {
	register(&workload{
		name:    "grid-cold",
		workers: 2,
		config: func(b *bench) core.Config {
			cfg := core.DefaultConfig() // the daemon's default
			cfg.Seed = b.seed
			cfg.InstrScale = b.instrScale
			return cfg
		},
		setup:  setupServer,
		level2: replayGrid(coldGrid),
	})
}

// setupServer starts a fresh engine behind internal/httpapi on a
// loopback port and waits until it answers its health check. The one
// client holds at most one connection.
func setupServer(b *bench) (*instance, error) {
	sys := core.NewSystem(b.w.config(b))
	eng := sweep.NewEngine(sys, b.w.workers)
	ctx, cancel := context.WithCancel(context.Background())
	api := httpapi.New(ctx, eng, httpapi.Config{Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		api.Close()
		return nil, err
	}
	hs := &http.Server{Handler: api}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on Shutdown
	}()
	// The client closes first and resets its connection rather than leave
	// it in TIME_WAIT: a run sets up thousands of servers for setup_s, and
	// lingering connections would slow every later set-up on the host.
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetLinger(0) //nolint:errcheck // a failed reset only leaves a TIME_WAIT
			}
			return c, err
		}}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	inst := &instance{sys: sys, eng: eng,
		close: func() {
			transport.CloseIdleConnections()
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			hs.Shutdown(sctx) //nolint:errcheck // best effort; cancel below aborts any sweep
			cancel()
			<-served
			api.Close()
		},
		pass: func(ctx context.Context, tr *tracer) outcome {
			return postSweep(ctx, client, base, tr)
		},
	}
	resp, err := client.Get(base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// sweepReply is the part of the POST /v1/sweeps response the checks
// read. Table and results are kept raw for the digest; wall_seconds and
// the cache stats are left out of it.
type sweepReply struct {
	Count   int             `json:"count"`
	Results json.RawMessage `json:"results"`
	Table   json.RawMessage `json:"table"`
	Wall    float64         `json:"wall_seconds"`
}

// postSweep sends the grid as one synchronous sweep request. The request
// and each of its specs are operations; a non-2xx reply or transport
// error fails all of them.
func postSweep(ctx context.Context, client *http.Client, base string, tr *tracer) outcome {
	specs := len(coldGrid.Expand())
	out := outcome{attempted: 1 + specs}
	body, _ := json.Marshal(map[string]any{"grid": coldGrid, "normalize": true}) // plain strings: cannot fail
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		out.failed = out.attempted
		out.fail("request: %v", err)
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	end := tr.open("http.POST /v1/sweeps")
	start := time.Now()
	resp, err := client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	out.requestS = time.Since(start).Seconds()
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var reply sweepReply
	if err == nil {
		err = json.Unmarshal(raw, &reply)
	}
	if err != nil {
		end()
		out.failed = out.attempted
		out.fail("sweep request: %v", err)
		return out
	}
	out.sweepS = reply.Wall
	// The server timed Engine.Sweep itself; place that span at the end of
	// the request it served.
	now := time.Now()
	tr.record("sweep.Engine.Sweep", now.Add(-time.Duration(reply.Wall*float64(time.Second))), now)
	end()

	var results []struct {
		Summary struct {
			Normalized float64 `json:"normalized"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(reply.Results, &results); err != nil || reply.Count != specs || len(results) != specs {
		out.failed = out.attempted
		out.fail("sweep reply: %d of %d results (%v)", len(results), specs, err)
		return out
	}
	for i, r := range results {
		if n := r.Summary.Normalized; !(n > 0) || math.IsInf(n, 0) {
			out.failed++
			out.fail("spec %d: normalized runtime %v", i, n)
		}
	}
	h := sha256.New()
	h.Write(reply.Table)
	h.Write(reply.Results)
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// ---- grid-warm: level 2 alone, over precomputed trace sets ----

var warmGrid = sweep.Grid{
	Mixes:    []string{"W1"},
	Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	Limits: []fbconfig.ThermalLimits{
		{AMBTDP: 110, AMBTRP: 109, DRAMTDP: 85, DRAMTRP: 84},
		{AMBTDP: 109.5, AMBTRP: 108.5, DRAMTDP: 85, DRAMTRP: 84},
		{AMBTDP: 109, AMBTRP: 108, DRAMTDP: 85, DRAMTRP: 84},
	},
}

func init() {
	register(&workload{
		name:    "grid-warm",
		workers: 1,
		config: func(b *bench) core.Config {
			cfg := core.DefaultConfig()
			cfg.Replicas = 50 // the paper's batch
			cfg.Seed = b.seed
			cfg.InstrScale = b.instrScale
			return cfg
		},
		// The cold fill pass builds every design point the grid needs, on
		// both cores; the measured passes only ever read its records.
		prepare: func(b *bench) error {
			sys := core.NewSystem(b.w.config(b))
			res, err := sweep.NewEngine(sys, 2).Sweep(context.Background(), warmGrid.Expand(), sweep.Options{Normalize: true})
			if err != nil {
				return fmt.Errorf("grid-warm fill pass: %w", err)
			}
			b.fillDigest = sweepDigest(res)
			sys.Store().Range(func(r trace.Rates) bool {
				b.fill = append(b.fill, r)
				return true
			})
			return nil
		},
		setup: func(b *bench) (*instance, error) {
			sys := core.NewSystem(b.w.config(b))
			sys.Store().PutBatch(b.fill)
			eng := sweep.NewEngine(sys, b.w.workers)
			return &instance{sys: sys, eng: eng, close: func() {},
				pass: func(ctx context.Context, tr *tracer) outcome {
					out := sweepInProcess(ctx, eng, warmGrid.Expand(), tr)
					if builds, _ := sys.Store().Counts(); builds != 0 {
						out.mismatch("warm pass built %d level-1 design points, want 0", builds)
					}
					if out.digest != "" && out.digest != b.fillDigest {
						out.mismatch("warm table differs from the fill pass's table")
					}
					return out
				}}, nil
		},
		level2: replayGrid(warmGrid),
	})
}

// replayGrid sweeps the grid in process, normalized, as the workload's
// level-2 replay.
func replayGrid(g sweep.Grid) func(*bench, *sweep.Engine) error {
	return func(_ *bench, eng *sweep.Engine) error {
		_, err := eng.Sweep(context.Background(), g.Expand(), sweep.Options{Normalize: true})
		return err
	}
}

// sweepInProcess runs the specs through Engine.Sweep, one operation per
// spec; failed specs are counted from the sweep's finish events.
func sweepInProcess(ctx context.Context, eng *sweep.Engine, specs []sweep.Spec, tr *tracer) outcome {
	out := outcome{attempted: len(specs)}
	end := tr.open("sweep.Engine.Sweep")
	res, err := eng.Sweep(ctx, specs, sweep.Options{
		Normalize: true,
		OnEvent: func(ev sweep.Event) {
			if ev.Kind == sweep.EventError {
				out.failed++ // finish events are delivered serialized
			}
		},
	})
	end()
	if err != nil {
		out.failed = max(out.failed, 1)
		out.fail("sweep: %v", err)
		return out
	}
	out.digest = sweepDigest(res)
	return out
}

// sweepDigest hashes a sweep's rendered table and every spec's simulated
// and normalized runtime, bit for bit.
func sweepDigest(res *sweep.Result) string {
	h := sha256.New()
	io.WriteString(h, res.Table("sweep").String()) //nolint:errcheck // hashes never fail
	for i, sp := range res.Specs {
		fmt.Fprintf(h, "%s %x %x\n", sp, math.Float64bits(res.Results[i].Seconds), math.Float64bits(res.Norms[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}
