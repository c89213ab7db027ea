// Package trace defines the interface between the two levels of the
// thermal simulator (§4.3.1, Fig. 4.1): the level-1 architectural
// simulator produces Rates records — steady-state performance and
// throughput for one combination of running applications under one DTM
// design point — and the level-2 simulator (MEMSpot) consumes them in
// 10 ms windows. A Store memoizes records and can persist them in the
// framed binary format of codec.go (legacy gob streams still load),
// mirroring the paper's precomputed trace sets Wi×D.
package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// DesignPoint is one point of the explored design space D: which
// applications are running (canonicalized), the core frequency, the
// memory bandwidth cap, and whether the memory is fully shut down.
type DesignPoint struct {
	// Apps is the canonical combination key: running application names,
	// sorted, joined with "|". Empty means no application is running.
	Apps string
	// FreqGHz is the core clock of all active cores.
	FreqGHz float64
	// BWCapGBps is the memory bandwidth cap; +Inf means uncapped.
	BWCapGBps float64
	// MemOff marks the fully-stopped memory state (DTM-TS / level L5).
	MemOff bool
}

// CanonApps builds the canonical Apps key from a set of running
// application names (empty strings are dropped).
func CanonApps(names []string) string {
	apps := make([]string, 0, len(names))
	for _, n := range names {
		if n != "" {
			apps = append(apps, n)
		}
	}
	sort.Strings(apps)
	return strings.Join(apps, "|")
}

// AppNames splits the canonical key back into names.
func (d DesignPoint) AppNames() []string {
	if d.Apps == "" {
		return nil
	}
	return strings.Split(d.Apps, "|")
}

// String renders the design point compactly.
func (d DesignPoint) String() string {
	cap := "inf"
	if !math.IsInf(d.BWCapGBps, 1) {
		cap = fmt.Sprintf("%.1f", d.BWCapGBps)
	}
	return fmt.Sprintf("{%s f=%.3g cap=%s off=%v}", d.Apps, d.FreqGHz, cap, d.MemOff)
}

// AppRates is the measured steady-state behaviour of one application
// instance within a combination. When the same name appears k times in a
// combination, the record is the per-instance average.
type AppRates struct {
	// InstrPerSec is the committed instruction rate.
	InstrPerSec float64
	// IPCRef is instructions per reference cycle (cycle at maximum
	// frequency), the quantity Eq. 3.6 uses.
	IPCRef float64
	// ReadGBps is demand+speculative read traffic attributable to the
	// instance; WriteGBps is its writeback traffic.
	ReadGBps  float64
	WriteGBps float64
	// L2MissPerSec and L2AccessPerSec describe last-level cache activity.
	L2MissPerSec   float64
	L2AccessPerSec float64
	// MemBoundFrac is the fraction of core cycles stalled on memory; the
	// level-2 simulator uses it to adjust instruction rates under phase
	// multipliers.
	MemBoundFrac float64
}

// Rates is the full level-1 record for one design point.
type Rates struct {
	Point DesignPoint
	// PerApp maps application name → per-instance rates.
	PerApp map[string]AppRates
	// Totals across all instances.
	TotalReadGBps  float64
	TotalWriteGBps float64
	MeanLatencyNS  float64
}

// TotalGBps returns read+write throughput.
func (r Rates) TotalGBps() float64 { return r.TotalReadGBps + r.TotalWriteGBps }

// Zero returns an all-idle record for the design point (used for MemOff
// and no-apps points without running the simulator).
func Zero(dp DesignPoint) Rates {
	pa := make(map[string]AppRates)
	for _, n := range dp.AppNames() {
		pa[n] = AppRates{}
	}
	return Rates{Point: dp, PerApp: pa}
}

// Builder computes a Rates record for a design point; the level-1
// simulator provides one.
type Builder interface {
	Build(dp DesignPoint) (Rates, error)
}

// BuilderFunc adapts a function to Builder.
type BuilderFunc func(dp DesignPoint) (Rates, error)

// Build implements Builder.
func (f BuilderFunc) Build(dp DesignPoint) (Rates, error) { return f(dp) }

// Store memoizes Rates by design point. It is safe for concurrent use:
// simultaneous Gets for the same unbuilt point share a single build
// (singleflight), while distinct points build in parallel.
type Store struct {
	mu       sync.Mutex
	builder  Builder
	recs     map[DesignPoint]Rates
	inflight map[DesignPoint]*build
	builds   int
	hits     int
	onBuild  func(Rates) // post-build hook; nil until SetOnBuild
}

// build tracks one in-flight level-1 simulation.
type build struct {
	done chan struct{}
	r    Rates
	err  error
}

// NewStore returns a store backed by b (may be nil for a read-only store
// filled via Load or Put).
func NewStore(b Builder) *Store {
	return &Store{
		builder:  b,
		recs:     make(map[DesignPoint]Rates),
		inflight: make(map[DesignPoint]*build),
	}
}

// Get returns the record for dp, building and memoizing it on first use.
// MemOff or empty-combination points short-circuit to Zero.
func (s *Store) Get(dp DesignPoint) (Rates, error) {
	if dp.MemOff || dp.Apps == "" || dp.FreqGHz <= 0 {
		return Zero(dp), nil
	}
	s.mu.Lock()
	if r, ok := s.recs[dp]; ok {
		s.hits++
		s.mu.Unlock()
		return r, nil
	}
	if fl, ok := s.inflight[dp]; ok {
		s.mu.Unlock()
		<-fl.done
		return fl.r, fl.err
	}
	b := s.builder
	if b == nil {
		s.mu.Unlock()
		return Rates{}, fmt.Errorf("trace: no record for %v and no builder", dp)
	}
	fl := &build{done: make(chan struct{})}
	s.inflight[dp] = fl
	s.mu.Unlock()

	r, err := b.Build(dp)
	if err != nil {
		err = fmt.Errorf("trace: building %v: %w", dp, err)
	}
	fl.r, fl.err = r, err
	s.mu.Lock()
	delete(s.inflight, dp)
	var hook func(Rates)
	if err == nil {
		s.recs[dp] = r
		s.builds++
		hook = s.onBuild
	}
	s.mu.Unlock()
	close(fl.done)
	if err != nil {
		return Rates{}, err
	}
	if hook != nil {
		hook(r)
	}
	return r, nil
}

// SetOnBuild registers fn to run after every successful level-1 build —
// freshly simulated records, not entries restored via Put/Load (so
// replaying a persisted log does not re-persist every record). fn runs
// outside the store lock on the builder's goroutine. Call before the
// store is in use; not synchronized with concurrent Get.
func (s *Store) SetOnBuild(fn func(Rates)) {
	s.mu.Lock()
	s.onBuild = fn
	s.mu.Unlock()
}

// Range calls fn for every memoized record until fn returns false. The
// record set is snapshotted under the lock, so fn itself runs lock-free.
func (s *Store) Range(fn func(Rates) bool) {
	s.mu.Lock()
	snap := make([]Rates, 0, len(s.recs))
	for _, r := range s.recs {
		snap = append(snap, r)
	}
	s.mu.Unlock()
	for _, r := range snap {
		if !fn(r) {
			return
		}
	}
}

// Put inserts a record directly (used by tests and by Load).
func (s *Store) Put(r Rates) {
	s.mu.Lock()
	s.recs[r.Point] = r
	s.mu.Unlock()
}

// PutBatch inserts a batch of records under one lock acquisition; Load
// uses it to insert each decoded chunk as it completes.
func (s *Store) PutBatch(rs []Rates) {
	s.mu.Lock()
	for _, r := range rs {
		s.recs[r.Point] = r
	}
	s.mu.Unlock()
}

// Len returns the number of memoized records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Counts returns how many records were built vs. served from memo. A
// MEMSpot run resolves each distinct design point it meets through Get
// once and keeps the record for the rest of the run, so hits count
// design-point resolutions per run, not simulation windows.
func (s *Store) Counts() (builds, hits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds, s.hits
}

// storedRates mirrors Rates for the legacy gob format with an explicit
// Inf encoding; Load still reads such streams.
type storedRates struct {
	Rates  Rates
	InfCap bool
}

// Save writes all records to w in the framed binary format (codec.go).
// Records are sorted by design point so the same record set always
// produces the same bytes.
func (s *Store) Save(w io.Writer) error {
	s.mu.Lock()
	recs := make([]Rates, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].Point, recs[j].Point
		if a.Apps != b.Apps {
			return a.Apps < b.Apps
		}
		if a.FreqGHz != b.FreqGHz {
			return a.FreqGHz < b.FreqGHz
		}
		if a.BWCapGBps != b.BWCapGBps {
			return a.BWCapGBps < b.BWCapGBps
		}
		return !a.MemOff && b.MemOff
	})
	buf := []byte(codecMagic)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	_, err := w.Write(buf)
	return err
}

// loadChunkBytes sizes the Load read buffer; a var so tests can shrink
// it to force records to span chunk boundaries.
var loadChunkBytes = 64 << 10

// Load reads records written by Save and inserts them. It sniffs the
// stream: framed streams decode incrementally in fixed-size chunks
// (each decoded batch inserted via PutBatch as it completes), legacy
// gob streams fall back to the old one-shot decoder.
func (s *Store) Load(r io.Reader) error {
	head := make([]byte, len(codecMagic))
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return fmt.Errorf("trace: load: %w", err)
	}
	head = head[:n]
	if string(head) != codecMagic {
		return s.loadGob(io.MultiReader(bytes.NewReader(head), r))
	}

	var dec ChunkDecoder
	if _, err := dec.Feed(head, nil); err != nil {
		return fmt.Errorf("trace: load: %w", err)
	}
	chunk := make([]byte, loadChunkBytes)
	var batch []Rates
	for {
		n, rerr := r.Read(chunk)
		if n > 0 {
			batch, err = dec.Feed(chunk[:n], batch[:0])
			if err != nil {
				return fmt.Errorf("trace: load: %w", err)
			}
			s.PutBatch(batch)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("trace: load: %w", rerr)
		}
	}
	if err := dec.Finish(); err != nil {
		return fmt.Errorf("trace: load: %w", err)
	}
	return nil
}

// loadGob reads the legacy one-blob gob format.
func (s *Store) loadGob(r io.Reader) error {
	var recs []storedRates
	if err := gob.NewDecoder(r).Decode(&recs); err != nil {
		return fmt.Errorf("trace: load: %w", err)
	}
	for _, sr := range recs {
		if sr.InfCap {
			sr.Rates.Point.BWCapGBps = math.Inf(1)
		}
		s.Put(sr.Rates)
	}
	return nil
}
