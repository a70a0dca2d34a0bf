package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

var hotloopDef = &workloadDef{
	name:      "hotloop",
	why:       "long cells on cheap-to-build programs, one at a time through Runner.Run: the cycle loop is >=95% of the time",
	setupReps: 25,
	setup:     setupHotloop,
}

// smokeRequest is the short cell every set-up ends with: one request
// answered end to end proves the instance is ready.
func smokeRequest(m *scenario.Matrix) sim.Request {
	req := m.Requests[0]
	req.Bench, req.Warmup, req.Measure = "gzip", 1000, 4000
	return req
}

type hotloop struct {
	e   *env
	m   *scenario.Matrix
	ids []string
}

// openRunner opens a fresh fs: store in dir and a Runner over it with
// the given worker count (the traced executor when tracing).
func openRunner(e *env, dir string, workers int, measureAllocs bool) (*sim.Runner, *sim.Store, error) {
	b, err := openBackend(dir, e.tr, "objstore.")
	if err != nil {
		return nil, nil, err
	}
	store := sim.NewStoreWith(b)
	opts := []sim.Option{sim.WithStore(store), sim.WithWorkers(workers)}
	if e.tr != nil {
		opts = append(opts, sim.WithExecutor(tracedExecutor(e.tr, e.counts, measureAllocs)))
	}
	return sim.New(opts...), store, nil
}

func setupHotloop(ctx context.Context, e *env) (instance, error) {
	m, err := e.expand(ctx)
	if err != nil {
		return nil, err
	}
	h := &hotloop{e: e, m: m}
	for i := range m.Requests {
		h.ids = append(h.ids, cellID(m, i))
	}
	plain := *e
	plain.tr = nil
	runner, store, err := openRunner(&plain, filepath.Join(e.dir, "smoke"), 1, false)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if _, err := runner.Run(ctx, smokeRequest(m)); err != nil {
		return nil, fmt.Errorf("smoke request: %w", err)
	}
	return h, nil
}

// measure runs whole passes over the cells, each pass into a fresh
// store with a fresh Runner and in a seed-shuffled order, for about
// budget (see another). Only the Runner.Run calls are timed. The rate
// is Σ measured cycles ÷ Σ each cell's median Runner.Run time over the
// passes, so a burst of host load during one pass does not move it.
func (h *hotloop) measure(ctx context.Context, budget time.Duration) (*phase, error) {
	p := &phase{workers: 1, layer: map[string]float64{}}
	var ctr sim.Counters
	var cellTime time.Duration
	var work float64
	var passRates []float64
	cellSecs := make([][]float64, len(h.m.Requests)) // Runner.Run seconds of each cell, one per pass
	cellCycles := make([]float64, len(h.m.Requests))
	start := time.Now()
	for pass := 0; another(start, pass, budget); pass++ {
		dir := filepath.Join(h.e.dir, "pass-"+strconv.Itoa(pass))
		runner, store, err := openRunner(h.e, dir, 1, true)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(h.e.seed, uint64(pass)))
		passStart, passWork := cellTime, work
		for _, i := range rng.Perm(len(h.m.Requests)) {
			req := h.m.Requests[i]
			key := sim.Key(req)
			rctx, end := h.e.tr.begin(ctx, "sim.Runner.Run", reqID(key))
			t0, c0 := time.Now(), cpuTime()
			res, err := runner.Run(rctx, req)
			d := time.Since(t0)
			p.cpu += cpuTime() - c0
			end(0, err != nil)
			p.attempted++
			if err != nil {
				p.failed++
				p.notes = append(p.notes, fmt.Sprintf("%s: %v", h.ids[i], err))
				continue
			}
			p.okOps++
			cellTime += d
			work += float64(res.S.Cycles)
			cellSecs[i] = append(cellSecs[i], d.Seconds())
			cellCycles[i] = float64(res.S.Cycles)
			p.checks = append(p.checks, check{id: h.ids[i], req: req, digest: digest(res)})
		}
		passRates = append(passRates, (work-passWork)/(cellTime-passStart).Seconds())
		c := runner.Counters()
		ctr.Simulated += c.Simulated
		ctr.MemHits += c.MemHits
		ctr.DiskHits += c.DiskHits
		if err := store.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	p.wall = cellTime
	var medCycles, medSecs float64
	for i, secs := range cellSecs {
		if len(secs) > 0 {
			medCycles += cellCycles[i]
			medSecs += median(secs)
		}
	}
	if medSecs > 0 {
		p.rate = medCycles / medSecs
	}
	p.notes = append(p.notes, fmt.Sprintf("per-pass simulated cycles/s: %.4g", passRates))
	if ctr.Simulated != uint64(p.okOps) {
		p.asserts = append(p.asserts, fmt.Sprintf("hotloop simulated %d cells for %d runs: every run must simulate", ctr.Simulated, p.okOps))
	}
	p.layer["sim.simulated"] = float64(ctr.Simulated)
	p.layer["sim.mem_hits"] = float64(ctr.MemHits)
	p.layer["sim.disk_hits"] = float64(ctr.DiskHits)
	p.figures = map[string]float64{
		"sim_cycles_per_s": p.rate,
		"cells_per_s":      float64(p.okOps) / cellTime.Seconds(),
	}
	return p, nil
}

func (h *hotloop) close() error { return nil }
