package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/scenario"
	"repro/internal/sim"
)

var serveWarmDef = &workloadDef{
	name:      "serve-warm",
	why:       "dispatch.Service on loopback over a store set-up warmed; two closed-loop clients replay 70% /v1/run, 30% /v1/results: nothing is simulated",
	setupReps: 3,
	setup:     setupServeWarm,
}

// Load shape: clients closed-loop clients, each with its own X-Client,
// and the share of requests that are results reads.
const (
	serveClients   = 2
	serveReadShare = 0.3
	// serveWindow is the window the request rate is counted over; the
	// rate reported is the median over a phase's windows.
	serveWindow = 500 * time.Millisecond
)

type serveWarm struct {
	e      *env
	m      *scenario.Matrix
	keys   []string
	param  []bool // the key holds '?', which dispatch.HTTP.Result does not escape
	want   []*sim.Result
	store  *sim.Store
	runner *sim.Runner
	srv    *http.Server
	served chan error
	base   string
	client [serveClients]*dispatch.HTTP
	checks []check // the key space's simulated results, verified after the run
}

// setupServeWarm simulates the key space into a fresh fs: store and
// brings a service with a fresh Runner over that store
// up on a loopback listener.
func setupServeWarm(ctx context.Context, e *env) (instance, error) {
	m, err := e.expand(ctx)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dir, "store")
	warm, err := sim.OpenStore("fs:" + dir)
	if err != nil {
		return nil, err
	}
	results, err := sim.New(sim.WithStore(warm), sim.WithWorkers(runtime.NumCPU())).RunAll(ctx, m.Requests)
	if err != nil {
		return nil, fmt.Errorf("warming the store: %w", err)
	}
	if err := warm.Close(); err != nil {
		return nil, err
	}
	s := &serveWarm{e: e, m: m, want: results, served: make(chan error, 1)}
	for i, req := range m.Requests {
		key := sim.Key(req)
		s.keys = append(s.keys, key)
		s.param = append(s.param, strings.Contains(key, "?"))
		s.checks = append(s.checks, check{id: cellID(m, i), req: req, digest: digest(results[i])})
	}

	b, err := openBackend(dir, e.tr, "objstore.")
	if err != nil {
		return nil, err
	}
	s.store = sim.NewStoreWith(b)
	opts := []sim.Option{sim.WithStore(s.store), sim.WithWorkers(runtime.NumCPU())}
	var svcOpts []dispatch.ServiceOption
	if e.tr != nil {
		opts = append(opts, sim.WithExecutor(tracedExecutor(e.tr, e.counts, false)))
		// Keep every request's stage stamps for the per-layer split.
		svcOpts = append(svcOpts, dispatch.WithRecent(1<<18))
	}
	s.runner = sim.New(opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: dispatch.NewService(s.runner, s.store, svcOpts...).Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	for c := range s.client {
		s.client[c] = dispatch.NewHTTP(s.base)
		s.client[c].SetClientID(fmt.Sprintf("perfbench-%d", c))
	}

	// Smoke: one results read of a catalog cell.
	i := 0
	for s.param[i] {
		i++
	}
	res, err := s.client[0].Result(ctx, s.keys[i])
	if err != nil {
		s.close()
		return nil, fmt.Errorf("smoke request: %w", err)
	}
	if *res != *s.want[i] {
		s.close()
		return nil, errors.New("smoke request: served result differs from the simulated one")
	}
	return s, nil
}

// clientTally is one client's share of a measured phase.
type clientTally struct {
	attempted, ok, failed, mismatched int
	paramReads, notFound, rejected    int
	defect                            int // 404s of the known unescaped-key defect
	ms                                []float64
	done                              []time.Duration // when each succeeded request completed, from the start of the phase
	notes                             []string
}

// drive runs one closed-loop client from start until deadline: each
// request picks a key and an endpoint from the client's seeded stream,
// and waits for its reply before the next.
func (s *serveWarm) drive(ctx context.Context, c int, start, deadline time.Time, t *clientTally) {
	rng := rand.New(rand.NewPCG(s.e.seed, 1000+uint64(c)))
	cl := s.client[c]
	for time.Now().Before(deadline) {
		i := rng.IntN(len(s.keys))
		read := rng.Float64() < serveReadShare
		name := "dispatch.HTTP.Execute"
		if read {
			name = "dispatch.HTTP.Result"
		}
		rctx, end := s.e.tr.begin(ctx, name, reqID(s.keys[i]))
		t0 := time.Now()
		var res *sim.Result
		var err error
		if read {
			res, err = cl.Result(rctx, s.keys[i])
		} else {
			res, err = cl.Execute(rctx, s.m.Requests[i])
		}
		d := time.Since(t0)
		end(0, err != nil)
		t.attempted++
		if read && s.param[i] {
			t.paramReads++
		}
		switch {
		case err != nil:
			if errors.Is(err, dispatch.ErrNotFound) {
				t.notFound++
			}
			if errors.Is(err, dispatch.ErrOverloaded) {
				t.rejected++
			}
			// The known defect: dispatch.HTTP.Result puts the key into
			// the URL path unescaped, so a key holding '?' is cut there
			// and answered 404. That answer is this service's documented
			// behaviour for the request: it is counted apart (error_rate,
			// dispatch.not_found_404), not as a failed op. Any other
			// error fails the op.
			if read && s.param[i] && errors.Is(err, dispatch.ErrNotFound) {
				t.defect++
				break
			}
			t.failed++
			if len(t.notes) < 5 {
				t.notes = append(t.notes, fmt.Sprintf("%s %s: %v", name, s.keys[i], err))
			}
		case *res != *s.want[i]:
			t.failed++
			t.mismatched++
		default:
			t.ok++
			t.ms = append(t.ms, d.Seconds()*1e3)
			t.done = append(t.done, t0.Add(d).Sub(start))
		}
	}
}

func (s *serveWarm) measure(ctx context.Context, budget time.Duration) (*phase, error) {
	var tallies [serveClients]clientTally
	start, c0 := time.Now(), cpuTime()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.drive(ctx, c, start, deadline, &tallies[c])
		}()
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), cpu: cpuTime() - c0, workers: runtime.NumCPU(), layer: map[string]float64{}}
	var paramReads, notFound, rejected, mismatched int
	var ms []float64         // latency of succeeded requests
	var done []time.Duration // their completion times
	for _, t := range tallies {
		p.attempted += t.attempted
		p.okOps += t.ok
		p.failed += t.failed
		p.defect += t.defect
		ms = append(ms, t.ms...)
		done = append(done, t.done...)
		p.notes = append(p.notes, t.notes...)
		paramReads += t.paramReads
		notFound += t.notFound
		rejected += t.rejected
		mismatched += t.mismatched
	}
	// Every served result was compared with the simulated one; those
	// are checked against the expected digests with the other
	// workloads' results.
	p.checks = s.checks
	if mismatched > 0 {
		p.notes = append(p.notes, fmt.Sprintf("%d served results differ from the stored ones", mismatched))
	}
	ctr := s.runner.Counters()
	p.asserts = append(p.asserts, serviceAsserts(ctr)...)
	p.layer["sim.simulated"] = float64(ctr.Simulated)
	p.layer["sim.mem_hits"] = float64(ctr.MemHits)
	p.layer["sim.disk_hits"] = float64(ctr.DiskHits)
	p.layer["dispatch.not_found_404"] = float64(notFound)
	p.layer["dispatch.rejected_429"] = float64(rejected)

	rates := windowRates(done, budget, serveWindow)
	p.rate = median(rates)
	q99, ok := quantile(ms, 0.99)
	tq, tv := tail(ms)
	share := float64(paramReads) / float64(max(1, p.attempted))
	p.figures = map[string]float64{
		"ok_req_per_s": p.rate,
		"req_ms_p50":   median(ms),
	}
	if ok {
		p.figures["req_ms_p99"] = q99
	}
	p.notes = append(p.notes,
		fmt.Sprintf("succeeded req/s over %d windows of %v: quartiles %.5g", len(rates), serveWindow, quartiles(rates)),
		fmt.Sprintf("%d succeeded requests; highest percentile with >=%d samples beyond it: p%g = %.4g ms", len(ms), minBeyond, tq*100, tv),
		fmt.Sprintf("known defect: %d of %d ops were results reads of parameterised gen: keys (share %.4f); %d answered 404, because dispatch.HTTP.Result does not escape '?' in the key",
			paramReads, p.attempted, share, notFound))
	if s.e.tr != nil {
		stamps, err := s.recent(ctx)
		if err != nil {
			return nil, err
		}
		p.stamps = stamps
	}
	return p, nil
}

// serviceAsserts checks that the warm service answered everything from
// its store and memory.
func serviceAsserts(ctr sim.Counters) []string {
	if ctr.Simulated != 0 {
		return []string{fmt.Sprintf("the warm service simulated %d requests, want 0", ctr.Simulated)}
	}
	return nil
}

// recent fetches the service's per-request stage stamps.
func (s *serveWarm) recent(ctx context.Context) ([]dispatch.RequestMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/requests/recent", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/requests/recent: %s", resp.Status)
	}
	var out []dispatch.RequestMetrics
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /v1/requests/recent: %w", err)
	}
	return out, nil
}

// close stops the server, waits for it, and releases the clients and
// the store.
func (s *serveWarm) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.client {
		c.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
