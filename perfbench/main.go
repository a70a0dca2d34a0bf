// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the real public entry points — scenario,
// fleet.Drain, sim.Runner, sim.Store over objstore, and dispatch.Service
// over loopback HTTP — checks every simulated result against expected
// digests, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON line at the end.
//
//	perfbench --workload hotloop --seed 1 --seconds 25 --trace 0
//	perfbench --list
//
// See README.md in this directory for the workloads, the metrics and
// how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/dispatch"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// setupReps is how many times one run sets the workload up; setup_s
	// is the median.
	setupReps int
	// setup builds one ready-to-measure instance in e.dir.
	setup func(ctx context.Context, e *env) (instance, error)
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for about budget and reports it.
	measure(ctx context.Context, budget time.Duration) (*phase, error)
	close() error
}

// env is what a workload's set-up gets: its seeded matrix, the oracle,
// a fresh directory, and the tracer (nil when untraced).
type env struct {
	workload string
	seed     uint64
	dir      string
	oracle   *oracle
	tr       *tracer
	counts   *cellCounts
}

// expand loads the workload's scenario with the seed applied and
// expands it.
func (e *env) expand(ctx context.Context) (*scenario.Matrix, error) {
	spec, err := seededSpec(e.workload, e.seed)
	if err != nil {
		return nil, err
	}
	_, end := e.tr.begin(ctx, "scenario.Expand", "")
	m, err := spec.Expand(scenario.Overrides{})
	end(0, err != nil)
	return m, err
}

// phase is what one measured phase produced.
type phase struct {
	attempted int
	failed    int // ops whose outcome is wrong: an error, or a result that differs from its expected digest
	defect    int // results reads answered 404 by the documented unescaped-key defect; not failed, but in error_rate
	okOps     int
	rate      float64       // throughput_per_s, a median over the run so that a burst of host load does not move it (see each workload's measure)
	wall      time.Duration // timed wall time
	cpu       time.Duration // process CPU time over the same timed regions
	checks    []check       // results to verify against the oracle
	workers   int           // executor concurrency, for sim.worker_busy_frac
	asserts   []string
	layer     map[string]float64 // per-layer values known without spans
	figures   map[string]float64 // workload figures
	notes     []string
	stamps    []dispatch.RequestMetrics // service stage stamps (traced serve-warm)
	goEnd     goStats                   // Go runtime counters when the measurement ended
}

var workloadList = []*workloadDef{hotloopDef, gridColdDef, serveWarmDef}

func findWorkload(name string) *workloadDef {
	for _, w := range workloadList {
		if w.name == name {
			return w
		}
	}
	return nil
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: hotloop, grid-cold or serve-warm")
	seed := fs.Uint64("seed", 1, "workload seed: the seed= of every gen: program and the request order")
	seconds := fs.Float64("seconds", 35, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	list := fs.Bool("list", false, "list the workloads and metrics without running anything")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and the span file")
	regen := fs.Uint64("regen-golden", 0, "write the expected digests of seeds [0, N) of --workload to --golden-out and exit")
	goldenOut := fs.String("golden-out", "", "output path for --regen-golden")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (see --list)\n", *workload)
		return 2
	}
	ctx := context.Background()
	if *regen > 0 {
		if *goldenOut == "" {
			fmt.Fprintln(stderr, "perfbench: --regen-golden needs --golden-out")
			return 2
		}
		if err := regenGolden(ctx, wl.name, *regen, *goldenOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	res, err := runWorkload(ctx, wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir, filepath.Join(*workdir, "spans-"+wl.name+".jsonl"), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setUp sets the workload up setupReps times, each in a fresh
// directory, and returns the last instance with every set-up time.
func setUp(ctx context.Context, wl *workloadDef, e env, reps int) (instance, []float64, error) {
	var times []float64
	var inst instance
	for r := range reps {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		e := e
		e.dir = filepath.Join(e.dir, "setup-"+strconv.Itoa(r))
		start := time.Now()
		var err error
		inst, err = wl.setup(ctx, &e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// measured runs one phase on a set-up instance, closes it and verifies
// its results.
func measured(ctx context.Context, inst instance, budget time.Duration, o *oracle) (*phase, error) {
	p, err := inst.measure(ctx, budget)
	goEnd := readGoStats()
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	p.goEnd = goEnd
	bad, err := o.verify(ctx, p.checks)
	if err != nil {
		return nil, fmt.Errorf("verifying results: %w", err)
	}
	if bad > 0 {
		p.failed += bad
		p.notes = append(p.notes, fmt.Sprintf("%d results differ from their expected digest", bad))
	}
	return p, nil
}

func runWorkload(ctx context.Context, wl *workloadDef, seed uint64, budget time.Duration, traced bool, dir, spanPath string, out io.Writer) (*result, error) {
	o, err := loadOracle(wl.name)
	if err != nil {
		return nil, err
	}
	e := env{workload: wl.name, seed: seed, dir: dir, oracle: o, counts: &cellCounts{}}
	inst, setupTimes, err := setUp(ctx, wl, e, wl.setupReps)
	if err != nil {
		return nil, err
	}
	if !traced {
		p, err := measured(ctx, inst, budget, o)
		if err != nil {
			return nil, err
		}
		return report(wl, o, setupTimes, p, nil, out)
	}

	// Traced run: an untraced half for reference, then a traced half
	// that the per-layer metrics come from.
	plain, err := measured(ctx, inst, budget/2, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	te := e
	te.tr = tr
	te.dir = filepath.Join(dir, "traced")
	tinst, err := wl.setup(ctx, &te)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	setupSpans := tr.since(0)
	from := tr.now()
	before := readGoStats()
	tp, err := measured(ctx, tinst, budget/2, o)
	if err != nil {
		return nil, err
	}
	layer := deriveLayers(setupSpans, tr.since(from), te.counts, tp, tp.goEnd.since(before))
	layer["trace.overhead_frac"] = 1 - tp.rate/plain.rate
	if err := tr.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", spanPath)
	return report(wl, o, setupTimes, plain, &tracedPhase{p: tp, layer: layer}, out)
}

// tracedPhase is the traced half of a --trace 1 run.
type tracedPhase struct {
	p     *phase
	layer map[string]float64
}

// report prints the human-readable figures and builds the result line.
func report(wl *workloadDef, o *oracle, setupTimes []float64, p *phase, t *tracedPhase, out io.Writer) (*result, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	vals := map[string]float64{
		"setup_s":          median(append([]float64(nil), setupTimes...)),
		"throughput_per_s": p.rate,
		"peak_rss_mb":      rss,
	}
	attempted, failed, defect := p.attempted, p.failed, p.defect
	asserts := p.asserts
	if t != nil {
		attempted += t.p.attempted
		failed += t.p.failed
		defect += t.p.defect
		asserts = append(asserts, t.p.asserts...)
	}
	table, resim := o.counts()

	fmt.Fprintf(out, "workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "set-up times (s): %v\n", setupTimes)
	fmt.Fprintf(out, "verified: %d distinct cells against the committed digests, %d by simulating again\n", table, resim)
	for _, n := range p.notes {
		fmt.Fprintln(out, n)
	}
	if t != nil {
		for _, n := range t.p.notes {
			fmt.Fprintln(out, "traced: "+n)
		}
	}
	errRate := 0.0
	if attempted > 0 {
		errRate = float64(failed+defect) / float64(attempted)
	}
	figures := map[string]float64{
		"error_rate":    errRate,
		"cpu_ms_per_op": p.cpu.Seconds() * 1e3 / float64(max(1, p.okOps)),
	}
	for k, v := range p.figures {
		figures[k] = v
	}
	for _, f := range workloadFigures {
		if v, ok := figures[f.name]; ok {
			fmt.Fprintf(out, "  %-16s %14.6g %s\n", f.name, v, f.unit)
		}
	}
	for _, a := range asserts {
		fmt.Fprintf(out, "ASSERTION FAILED: %s\n", a)
	}

	res := &result{Correct: failed == 0 && len(asserts) == 0, Attempted: attempted, Failed: failed}
	if attempted < 1 {
		return nil, errors.New("no op attempted")
	}
	if t == nil {
		for _, m := range endToEnd {
			fmt.Fprintf(out, "  %-16s %14.6g %s\n", m.name, vals[m.name], m.unit)
		}
		res.Metrics, err = collect(endToEnd, vals)
		return res, err
	}
	fmt.Fprintf(out, "untraced throughput_per_s %.6g, traced %.6g\n", p.rate, t.p.rate)
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", m.name, t.layer[m.name], m.unit)
	}
	res.Metrics, err = collect(perLayer, t.layer)
	return res, err
}

// goStats is a runtime/metrics snapshot for the go.* per-layer metrics.
type goStats struct {
	at         time.Time
	gcCycles   uint64
	allocBytes uint64
	pauseNS    uint64
}

func readGoStats() goStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{at: time.Now(), gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), pauseNS: ms.PauseTotalNs}
}

// goDelta is what the Go runtime did between two snapshots.
type goDelta struct {
	secs       float64
	gcCycles   uint64
	allocBytes uint64
	pauseNS    uint64
}

func (a goStats) since(b goStats) goDelta {
	return goDelta{
		secs:       a.at.Sub(b.at).Seconds(),
		gcCycles:   a.gcCycles - b.gcCycles,
		allocBytes: a.allocBytes - b.allocBytes,
		pauseNS:    a.pauseNS - b.pauseNS,
	}
}
