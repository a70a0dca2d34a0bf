package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

var gridColdDef = &workloadDef{
	name:      "grid-cold",
	why:       "a construction-heavy grid drained by one fleet.Drain host into a fresh bucket: program build and core.New dominate every cell",
	setupReps: 25,
	setup:     setupGridCold,
}

// gridShardCells is the lease granularity: two and a half shapes.
const gridShardCells = 25

type gridCold struct {
	e   *env
	m   *scenario.Matrix
	ids []string
}

func setupGridCold(ctx context.Context, e *env) (instance, error) {
	m, err := e.expand(ctx)
	if err != nil {
		return nil, err
	}
	g := &gridCold{e: e, m: m}
	for i := range m.Requests {
		g.ids = append(g.ids, cellID(m, i))
	}
	plain := *e
	plain.tr = nil
	runner, store, err := openRunner(&plain, filepath.Join(e.dir, "smoke"), runtime.NumCPU(), false)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if _, err := runner.Run(ctx, smokeRequest(m)); err != nil {
		return nil, fmt.Errorf("smoke request: %w", err)
	}
	return g, nil
}

// measure drains the whole grid into a fresh bucket, again and again
// for about budget (see another), and after each drain reads every
// stored result back to check it. Only the fleet.Drain calls are timed;
// the rate is the median of the drains' cells/s.
func (g *gridCold) measure(ctx context.Context, budget time.Duration) (*phase, error) {
	workers := runtime.NumCPU()
	p := &phase{workers: workers, layer: map[string]float64{}}
	var drainTime time.Duration
	var simulated, storeHits, memHits, shards, takenOver int
	var rates []float64
	var simCycles uint64
	start := time.Now()
	for n := 0; another(start, n, budget); n++ {
		bucket := filepath.Join(g.e.dir, "drain-"+strconv.Itoa(n))
		leaseSpec, err := fleet.LeaseSpec("fs:" + bucket)
		if err != nil {
			return nil, err
		}
		leases, err := openBackend(strings.TrimPrefix(leaseSpec, "fs:"), g.e.tr, "lease.")
		if err != nil {
			return nil, err
		}
		runner, store, err := openRunner(g.e, bucket, workers, false)
		if err != nil {
			return nil, err
		}

		dctx, end := g.e.tr.begin(ctx, "fleet.Drain", "")
		t0, c0 := time.Now(), cpuTime()
		sum, err := fleet.Drain(dctx, g.m, runner, leases, fleet.Config{Host: "perfbench", ShardCells: gridShardCells})
		d := time.Since(t0)
		p.cpu += cpuTime() - c0
		end(0, err != nil)
		if err != nil {
			return nil, err
		}
		drainTime += d
		rates = append(rates, float64(len(g.m.Requests))/d.Seconds())
		simulated += sum.Simulated
		storeHits += sum.StoreHits
		memHits += sum.MemHits
		shards += sum.Shards
		takenOver += sum.TakenOver
		p.asserts = append(p.asserts, drainAsserts(n, sum, len(g.m.Requests))...)

		// Read the results back through an untraced store to check them.
		readBack := sim.NewStore(bucket)
		for i, req := range g.m.Requests {
			key := sim.Key(req)
			p.attempted++
			res, ok := readBack.Load(ctx, key)
			if !ok {
				p.failed++
				p.notes = append(p.notes, fmt.Sprintf("drain %d: %s not in the store", n, g.ids[i]))
				continue
			}
			p.okOps++
			simCycles += res.S.Cycles
			p.checks = append(p.checks, check{id: g.ids[i], req: req, digest: digest(res)})
		}
		for _, c := range []interface{ Close() error }{store, leases, readBack} {
			if err := c.Close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(bucket); err != nil {
			return nil, err
		}
	}
	p.wall = drainTime
	p.rate = median(slices.Clone(rates))
	p.notes = append(p.notes, fmt.Sprintf("per-drain cells/s: %.4g", rates))
	p.layer["sim.simulated"] = float64(simulated)
	p.layer["sim.disk_hits"] = float64(storeHits)
	p.layer["sim.mem_hits"] = float64(memHits)
	p.layer["fleet.shards"] = float64(shards)
	p.layer["fleet.taken_over"] = float64(takenOver)
	p.figures = map[string]float64{
		"sim_cycles_per_s": float64(simCycles) / drainTime.Seconds(),
		"cells_per_s":      p.rate,
	}
	return p, nil
}

func (g *gridCold) close() error { return nil }

// drainAsserts checks one drain of a fresh bucket by a single host: no
// shard was taken over, and every unique request was simulated.
func drainAsserts(n int, sum *fleet.Summary, unique int) []string {
	var out []string
	if sum.TakenOver != 0 {
		out = append(out, fmt.Sprintf("drain %d: %d shards taken over, want 0", n, sum.TakenOver))
	}
	if sum.Simulated != unique {
		out = append(out, fmt.Sprintf("drain %d: simulated %d, want the %d unique requests", n, sum.Simulated, unique))
	}
	return out
}
