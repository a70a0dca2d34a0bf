package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The traced executor splits Core.RunContext into its warmup and
// measure halves; the result must equal one sim.Simulate call.
func TestSplitRunContextMatchesSimulate(t *testing.T) {
	ctx := context.Background()
	spec, err := seededSpec("hotloop", 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Expand(scenario.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	exec := tracedExecutor(newTracer(), &cellCounts{}, true)
	for _, bench := range []string{"crafty", "hmmer", "gen:spill?depth=16"} {
		req := m.Requests[0]
		req.Bench, req.Warmup, req.Measure = bench, 5000, 20000
		want, err := sim.Simulate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: split run differs from sim.Simulate:\n got %+v\nwant %+v", bench, got, want)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: digests differ", bench)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{5, 0.5}, {19, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		q, v := tail(xs)
		if q != tc.wantQ {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, q, tc.wantQ)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it, want >= %d", tc.n, q*100, v, beyond, minBeyond)
		}
	}
	if got := pct([]float64{1, 2, 3}, 0.99); got != 0 {
		t.Errorf("p99 of 3 samples = %g, want 0 (not reportable)", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// A burst that slows a minority of the windows does not move the
// windowed rate, and a phase shorter than two windows falls back to the
// mean rate.
func TestWindowRateIgnoresBurst(t *testing.T) {
	const w = 100 * time.Millisecond
	var done []time.Duration
	at := time.Duration(0)
	for at < time.Second {
		step := time.Millisecond // 1000 events/s
		if at >= 200*time.Millisecond && at < 400*time.Millisecond {
			step = 4 * time.Millisecond // two windows at 250 events/s
		}
		at += step
		done = append(done, at)
	}
	if got := median(windowRates(done, time.Second, w)); math.Abs(got-1000) > 1e-6 {
		t.Errorf("windowed rate %g, want 1000", got)
	}
	if got := median(windowRates(done[:50], 150*time.Millisecond, w)); math.Abs(got-50/0.15) > 1e-6 {
		t.Errorf("short phase: rate %g, want the mean %g", got, 50/0.15)
	}
}

// The timing decorator must pass bytes, errors and generation tokens
// through unchanged.
func TestTimedBackendTransparent(t *testing.T) {
	ctx := context.Background()
	for _, inner := range []objstore.Backend{objstore.NewMem(), objstore.NewFS(t.TempDir())} {
		tr := newTracer()
		b := &timedBackend{Backend: inner, tr: tr, prefix: "objstore."}
		name := strings.Repeat("ab", 32)
		other := strings.Repeat("cd", 32)
		payload := []byte(`{"x":1}`)

		_, errInner := inner.Get(ctx, name)
		_, errTimed := b.Get(ctx, name)
		if !errors.Is(errTimed, fs.ErrNotExist) || errInner.Error() != errTimed.Error() {
			t.Errorf("%s: missing Get: inner %v, timed %v", inner, errInner, errTimed)
		}
		if err := b.Put(ctx, name, payload); err != nil {
			t.Fatal(err)
		}
		got, err := inner.Get(ctx, name)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s: Put through the decorator stored %q, %v", inner, got, err)
		}
		got, err = b.Get(ctx, name)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s: Get through the decorator returned %q, %v", inner, got, err)
		}
		stored, err := b.PutIfAbsent(ctx, name, []byte("other"))
		if stored || err != nil {
			t.Errorf("%s: PutIfAbsent on a present entry = %v, %v", inner, stored, err)
		}
		stored, err = b.PutIfAbsent(ctx, other, payload)
		if !stored || err != nil {
			t.Errorf("%s: PutIfAbsent on an absent entry = %v, %v", inner, stored, err)
		}
		errInner = inner.Put(ctx, "bad", payload)
		errTimed = b.Put(ctx, "bad", payload)
		if errInner == nil || errTimed == nil || errInner.Error() != errTimed.Error() {
			t.Errorf("%s: bad name: inner %v, timed %v", inner, errInner, errTimed)
		}
		for _, shard := range []string{"ab", "cd"} {
			gi, oki := inner.Generation(ctx, shard)
			gt, okt := b.Generation(ctx, shard)
			if gi != gt || oki != okt {
				t.Errorf("%s: Generation(%s): inner %q %v, timed %q %v", inner, shard, gi, oki, gt, okt)
			}
			li, erri := inner.List(ctx, shard)
			lt, errt := b.List(ctx, shard)
			if !reflect.DeepEqual(li, lt) || (erri == nil) != (errt == nil) {
				t.Errorf("%s: List(%s) differs: %v %v / %v %v", inner, shard, li, erri, lt, errt)
			}
		}
		si, erri := inner.Stat(ctx, name)
		st, errt := b.Stat(ctx, name)
		if si != st || (erri == nil) != (errt == nil) {
			t.Errorf("%s: Stat differs: %+v / %+v", inner, si, st)
		}
		if n := len(tr.since(0)); n != 8 {
			t.Errorf("%s: %d spans recorded, want 8 (one per Get/Put/PutIfAbsent/List)", inner, n)
		}
	}
}

func TestServiceAsserts(t *testing.T) {
	if got := serviceAsserts(sim.Counters{MemHits: 5, DiskHits: 2}); len(got) != 0 {
		t.Errorf("a service that simulated nothing raised %v", got)
	}
	if got := serviceAsserts(sim.Counters{Simulated: 1}); len(got) != 1 {
		t.Errorf("a service that simulated a request raised %v, want one assertion", got)
	}
}

func TestDrainAsserts(t *testing.T) {
	if got := drainAsserts(0, &fleet.Summary{Simulated: 60, Requests: 60}, 60); len(got) != 0 {
		t.Errorf("a clean drain raised %v", got)
	}
	if got := drainAsserts(0, &fleet.Summary{Simulated: 60, Requests: 60, TakenOver: 1}, 60); len(got) != 1 {
		t.Errorf("a drain with a takeover raised %v, want one assertion", got)
	}
	if got := drainAsserts(0, &fleet.Summary{Simulated: 59, StoreHits: 1, Requests: 60}, 60); len(got) != 1 {
		t.Errorf("a drain that simulated 59 of 60 raised %v, want one assertion", got)
	}
}

// A real serve-warm instance simulates nothing while it serves, and a
// service whose store was emptied after set-up does, which the
// assertion catches.
func TestServeWarmSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("sets the service up")
	}
	ctx := context.Background()
	o, err := loadOracle("serve-warm")
	if err != nil {
		t.Fatal(err)
	}
	for _, empty := range []bool{false, true} {
		e := &env{workload: "serve-warm", seed: 1, dir: t.TempDir(), oracle: o, counts: &cellCounts{}}
		inst, err := setupServeWarm(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if empty {
			if err := os.RemoveAll(e.dir + "/store"); err != nil {
				t.Fatal(err)
			}
		}
		p, err := measured(ctx, inst, 300*time.Millisecond, o)
		if err != nil {
			t.Fatal(err)
		}
		if p.attempted == 0 {
			t.Fatal("no request attempted")
		}
		simulated := p.layer["sim.simulated"]
		if !empty && (simulated != 0 || len(p.asserts) != 0 || p.failed != 0) {
			t.Errorf("warm service: simulated %g, asserts %v, %d failed (%v)", simulated, p.asserts, p.failed, p.notes)
		}
		if empty && (simulated == 0 || len(p.asserts) == 0) {
			t.Errorf("emptied store: simulated %g, asserts %v; want the simulated == 0 assertion to fire", simulated, p.asserts)
		}
	}
}

// One real drain of the grid-cold grid takes no lease over and
// simulates exactly the unique requests.
func TestGridColdDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("drains a 60-request grid")
	}
	ctx := context.Background()
	o, err := loadOracle("grid-cold")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{workload: "grid-cold", seed: 1, dir: t.TempDir(), oracle: o, counts: &cellCounts{}}
	inst, err := setupGridCold(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	p, err := measured(ctx, inst, time.Millisecond, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.asserts) != 0 || p.failed != 0 || p.layer["fleet.taken_over"] != 0 || p.layer["sim.simulated"] != 60 {
		t.Errorf("drain: asserts %v, %d failed, taken over %g, simulated %g; notes %v",
			p.asserts, p.failed, p.layer["fleet.taken_over"], p.layer["sim.simulated"], p.notes)
	}
}

func TestWithSeed(t *testing.T) {
	for in, want := range map[string]string{
		"gzip":                      "gzip",
		"gen:vector":                "gen:vector?seed=28",
		"gen:spill?depth=16":        "gen:spill?depth=16&seed=28",
		"gen:spill?depth=16&seed=2": "gen:spill?depth=16&seed=30",
		"gen:spill?seed=3&depth=16": "gen:spill?depth=16&seed=31",
	} {
		if got, err := withSeed(in, 7); got != want || err != nil {
			t.Errorf("withSeed(%q, 7) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := withSeed("gen:spill?seed=4", 7); err == nil {
		t.Error("an instance seed >= seedStride was accepted")
	}
}

// Every cell of every covered seed has a committed digest.
func TestGoldenCoversSeeds(t *testing.T) {
	for _, wl := range workloadList {
		raw, err := data.ReadFile("golden/" + wl.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var g goldenFile
		if err := json.Unmarshal(raw, &g); err != nil {
			t.Fatal(err)
		}
		if g.Workload != wl.name || g.Seeds == 0 {
			t.Errorf("golden/%s.json: workload %q, %d seeds", wl.name, g.Workload, g.Seeds)
		}
		for seed := range g.Seeds {
			spec, err := seededSpec(wl.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spec.Expand(scenario.Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Requests {
				if _, ok := g.Digests[cellID(m, i)]; !ok {
					t.Errorf("golden/%s.json: seed %d: no digest for %s", wl.name, seed, cellID(m, i))
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root lists exactly this registry's
// workloads and metrics.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloadList[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the registry %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %s %s %s %g here", i, m, d.name, d.unit, d.better, d.bound)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %s %s %s here", i, m, d.name, d.unit, d.better)
		}
	}
}

func TestListMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--list"}, &out, &errOut); code != 0 {
		t.Fatalf("--list exited %d: %s", code, errOut.String())
	}
	for _, w := range workloadList {
		if !strings.Contains(out.String(), w.name) {
			t.Errorf("--list omits workload %s", w.name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(out.String(), m.name) {
			t.Errorf("--list omits metric %s", m.name)
		}
	}
}
