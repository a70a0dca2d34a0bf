// Package experiments regenerates every table and figure of the paper's
// evaluation (§5-§6). The speedup-over-baseline figures are committed
// scenario specs (internal/scenario/specs) that Session.Scenario renders;
// the tables that report something other than a speedup series (Table 1,
// the storage arithmetic, Figures 4, 5b and 6b, the ISRB traffic
// statistics) are Go functions here. Everything runs through a shared
// internal/sim Runner (in parallel, with deduplication and caching) and
// returns formatted text tables plus machine-readable data for the test
// suite's shape checks.
package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunLengths sets simulation length. The paper uses 50M warmup + 100M
// measured instructions of SimPoint slices; the synthetic workloads reach
// steady state orders of magnitude sooner.
type RunLengths struct {
	Warmup  uint64
	Measure uint64
}

// DefaultRunLengths is used by cmd/paperfigs.
var DefaultRunLengths = RunLengths{Warmup: 30_000, Measure: 150_000}

// QuickRunLengths is used by unit tests.
var QuickRunLengths = RunLengths{Warmup: 10_000, Measure: 50_000}

// Result captures one simulation's outcome (see sim.Result).
type Result = sim.Result

// Series is one named speedup curve over the benchmark list.
type Series = sim.Series

// Session pairs run lengths with the sim.Runner that executes, caches
// and deduplicates the simulations, and with the context every one of
// its runs observes. Several Sessions may share one Runner: the
// deduplication key includes the run lengths.
//
// The figure methods keep their value-returning signatures (they exist
// to be printed); when the session's context is canceled or a request
// is invalid, they panic with the runner's typed error value, which
// drivers recover at the top (see cmd/paperfigs) and test against with
// errors.Is.
type Session struct {
	RL RunLengths

	// OnEvent, when non-nil, receives every per-request completion
	// event the session's batched runs stream — the hook cmd/paperfigs
	// hangs its live progress line on.
	OnEvent func(sim.Event)

	ctx context.Context
	r   *sim.Runner
}

// NewSession creates a session with the given run lengths and a private
// runner, on the background context.
func NewSession(rl RunLengths) *Session { return NewSessionWith(rl, nil) }

// NewSessionWith creates a session on an existing runner (nil: a new
// one), so callers — the test suite's TestMain, cmd/paperfigs with a
// disk cache — can share results across sessions.
func NewSessionWith(rl RunLengths, r *sim.Runner) *Session {
	return NewSessionContext(context.Background(), rl, r)
}

// NewSessionContext creates a session whose every simulation observes
// ctx: cancel it and in-flight figure sweeps abort mid-cycle-loop with
// a panic carrying a sim.ErrCanceled-wrapping error.
func NewSessionContext(ctx context.Context, rl RunLengths, r *sim.Runner) *Session {
	if r == nil {
		r = sim.New()
	}
	return &Session{RL: rl, ctx: ctx, r: r}
}

// Runner exposes the session's underlying runner.
func (s *Session) Runner() *sim.Runner { return s.r }

// run simulates bench under cfg through the shared runner.
func (s *Session) run(bench string, cfg core.Config) *Result {
	return s.r.MustRun(s.ctx, sim.Request{Bench: bench, Config: cfg, Warmup: s.RL.Warmup, Measure: s.RL.Measure})
}

// runAll simulates every benchmark under cfgFor in parallel, preserving
// catalog order and streaming completion events to OnEvent.
func (s *Session) runAll(cfgFor func(bench string) core.Config) []*Result {
	results, err := s.r.RunBenchmarks(s.ctx, s.RL.Warmup, s.RL.Measure, cfgFor, s.OnEvent)
	if err != nil {
		panic(err)
	}
	return results
}

// Scenario executes the named committed scenario (internal/scenario/
// specs) at the session's run lengths through the session's runner, so
// figure sweeps share the deduplicated baseline and any attached disk
// store with everything else the session runs. Every speedup-series
// figure is such a spec — the spec files are the single source of truth
// for their grids, titles and series labels. An unknown name panics
// like any other harness bug.
func (s *Session) Scenario(name string) (*stats.Table, []Series) {
	rep, err := scenario.MustBuiltin(name).
		MustExpand(scenario.Overrides{Warmup: &s.RL.Warmup, Measure: &s.RL.Measure}).
		Run(s.ctx, s.r, s.OnEvent)
	if err != nil {
		panic(err)
	}
	return rep.Table(), rep.Series()
}

// Baseline returns per-benchmark baseline results (Figure 4's machine).
func (s *Session) Baseline() []*Result {
	return s.runAll(func(string) core.Config { return core.DefaultConfig() })
}

// --- configuration builders -------------------------------------------

// meConfig and smbConfig are the default machine with one optimization
// over an unlimited tracker (the ideal reference counting of Figures 5b
// and 6b).
func meConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ME.Enabled = true
	cfg.Tracker = core.TrackerConfig{Kind: core.TrackerUnlimited}
	return cfg
}

func smbConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SMB.Enabled = true
	cfg.Tracker = core.TrackerConfig{Kind: core.TrackerUnlimited}
	return cfg
}
