package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workloads"
)

//go:embed scenarios/*.scenario golden/*.json
var data embed.FS

// seededSpec loads a workload's committed scenario and gives every
// gen: name in it its seed for this run (see withSeed), so the run seed
// picks the program instances of every generated shape while catalog
// programs stay fixed.
func seededSpec(workload string, seed uint64) (*scenario.Spec, error) {
	raw, err := data.ReadFile("scenarios/" + workload + ".scenario")
	if err != nil {
		return nil, err
	}
	spec, err := scenario.ParseBytes(raw)
	if err != nil {
		return nil, err
	}
	lists := [][]string{spec.Benchmarks}
	for _, a := range spec.WorkloadAxes {
		for _, v := range a.Values {
			lists = append(lists, v.Benchmarks)
		}
	}
	for _, list := range lists {
		for i, b := range list {
			if list[i], err = withSeed(b, seed); err != nil {
				return nil, err
			}
		}
	}
	return spec, spec.Validate()
}

// seedStride is how many program instances of one shape a run seed
// owns. A gen: name written with seed=i (default 0) in a scenario file
// gets seed seedStride*S + i in the run with seed S, so a workload can
// average over several instances of a shape and distinct run seeds
// never share one.
const seedStride = 4

// genSeeds is the range of the generators' seed parameter; larger
// seeds wrap.
const genSeeds = 1 << 32

func withSeed(name string, seed uint64) (string, error) {
	if !strings.HasPrefix(name, workloads.GenPrefix) {
		return name, nil
	}
	family, query, _ := strings.Cut(name, "?")
	var params []string
	inst := uint64(0)
	if query != "" {
		for _, kv := range strings.Split(query, "&") {
			v, ok := strings.CutPrefix(kv, "seed=")
			if !ok {
				params = append(params, kv)
				continue
			}
			i, err := strconv.ParseUint(v, 10, 64)
			if err != nil || i >= seedStride {
				return "", fmt.Errorf("%s: instance seed %q must be an integer below %d", name, v, seedStride)
			}
			inst = i
		}
	}
	params = append(params, fmt.Sprintf("seed=%d", (seed*seedStride+inst)%genSeeds))
	return family + "?" + strings.Join(params, "&"), nil
}

// cellID names request i of m independently of how sim.Key encodes the
// configuration: its canonical workload name, whether it is a baseline
// or optimized run, and the axis labels of the cell that first used it.
func cellID(m *scenario.Matrix, i int) string {
	cell := m.Cells[m.FirstUse[i]]
	side := "opt"
	if slices.Contains(cell.Base, i) {
		side = "base"
	}
	return m.Requests[i].Bench + "|" + side + "|" + strings.Join(cell.Labels, "/")
}

// digest fingerprints a result's simulated statistics: cycles,
// committed uops, IPC, every core counter, and the tracker, move
// elimination and memory counters. Timing never reaches a Result, so
// equal simulations give equal digests in any run.
func digest(res *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%s|%x|%+v|%+v|%+v|%+v", res.Bench, res.StaticUops, res.TrackerName,
		res.IPC, res.S, res.Tracker, res.ME, res.Mem)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenFile is the committed expected-digest table of one workload:
// every cell of every seed in [0, Seeds), keyed by cellID. Catalog
// cells do not depend on the seed, so they appear once.
type goldenFile struct {
	Workload string            `json:"workload"`
	Seeds    uint64            `json:"seeds"`
	Digests  map[string]string `json:"digests"`
}

// oracle answers the expected digest of a cell: from the committed
// table (the parent commit's outputs) when it holds the cell, otherwise
// by simulating the request again with sim.Simulate.
type oracle struct {
	table map[string]string

	mu      sync.Mutex
	resim   map[string]string // cells simulated again, with their digests
	fromTab map[string]bool   // cells checked against the table
}

func loadOracle(workload string) (*oracle, error) {
	raw, err := data.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return &oracle{table: g.Digests, resim: make(map[string]string), fromTab: make(map[string]bool)}, nil
}

// check is one produced result to verify.
type check struct {
	id     string
	req    sim.Request
	digest string
}

// verify returns how many of checks differ from the expected digest.
// Cells missing from the table are simulated again, nproc at a time.
func (o *oracle) verify(ctx context.Context, checks []check) (int, error) {
	want := make(map[string]string)
	var missing []check
	seen := make(map[string]bool)
	o.mu.Lock()
	for _, c := range checks {
		if seen[c.id] {
			continue
		}
		seen[c.id] = true
		if d, ok := o.table[c.id]; ok {
			want[c.id] = d
			o.fromTab[c.id] = true
		} else if d, ok := o.resim[c.id]; ok {
			want[c.id] = d
		} else {
			missing = append(missing, c)
		}
	}
	o.mu.Unlock()

	digests, err := simulateAll(ctx, missing)
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	for i, c := range missing {
		o.resim[c.id] = digests[i]
		want[c.id] = digests[i]
	}
	o.mu.Unlock()

	bad := 0
	for _, c := range checks {
		if want[c.id] != c.digest {
			bad++
		}
	}
	return bad, nil
}

// counts reports how many distinct cells were checked against the
// committed table and how many by simulating them again.
func (o *oracle) counts() (table, resim int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.fromTab), len(o.resim)
}

// simulateAll runs sim.Simulate on every check's request, nproc at a
// time, and returns the digests in order.
func simulateAll(ctx context.Context, checks []check) ([]string, error) {
	out := make([]string, len(checks))
	errs := make([]error, len(checks))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, c := range checks {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := sim.Simulate(ctx, c.req)
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = digest(res)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// regenGolden writes the expected-digest table of workload for seeds
// [0, seeds) to path, simulating every cell with sim.Simulate.
func regenGolden(ctx context.Context, workload string, seeds uint64, path string) error {
	g := goldenFile{Workload: workload, Seeds: seeds, Digests: make(map[string]string)}
	var todo []check
	for seed := range seeds {
		spec, err := seededSpec(workload, seed)
		if err != nil {
			return err
		}
		m, err := spec.Expand(scenario.Overrides{})
		if err != nil {
			return err
		}
		for i, req := range m.Requests {
			id := cellID(m, i)
			if _, ok := g.Digests[id]; !ok {
				g.Digests[id] = ""
				todo = append(todo, check{id: id, req: req})
			}
		}
	}
	digests, err := simulateAll(ctx, todo)
	if err != nil {
		return err
	}
	for i, c := range todo {
		g.Digests[c.id] = digests[i]
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}
