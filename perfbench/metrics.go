package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef is one reported metric: its name and unit as printed, which
// direction is better, the layer it belongs to, and which end-to-end
// metric it should move on which workload. The end-to-end set and the
// per-layer set are exactly BENCHMARK.json's end_to_end and per_layer
// lists (TestRegistryMatchesBenchmarkJSON pins that).
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	layer  string  // the repo module (per-layer metrics)
	moves  string  // end-to-end metric and workload it should move (per-layer metrics)
	def    string  // one-line definition
	bound  float64 // end-to-end metrics: the allowed worsening, as a share of the parent's median
}

// endToEnd lists the gated end-to-end metrics. Every workload reports
// every one of them, so each is defined for all three workloads and is
// never zero. throughput_per_s is each workload's headline rate in its
// own unit of work; the other workload figures (cells_per_s,
// req_ms_p50/p99, error_rate) are printed above the result line as
// workloadFigures.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		def: "median over repeated set-ups in one run: scenario expand, fresh store, runner (and, on serve-warm, simulating the key space into the store and bringing the service up), ending with one smoke request answered"},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25,
		def: "work done per second of timed wall time, as a median over the run: hotloop measured simulated cycles / summed per-cell median Runner.Run time over the passes (sim_cycles_per_s), grid-cold median over drains of cells stored / drain time (cells_per_s), serve-warm median over 0.5 s windows of succeeded requests per second (ok_req_per_s)"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25,
		def: "peak resident set size of the benchmark process (VmHWM)"},
}

// perLayer lists the traced run's per-layer metrics, in the order they
// are printed.
var perLayer = []metricDef{
	// workloads
	{name: "workloads.build_ms", unit: "ms", better: "lower", layer: "workloads", moves: "throughput_per_s on grid-cold (dominant); <=2% of hotloop", def: "summed workloads.Build time"},
	{name: "workloads.build_ms_p50", unit: "ms", better: "lower", layer: "workloads", moves: "throughput_per_s on grid-cold", def: "median workloads.Build time per cell"},
	{name: "workloads.builds", unit: "count", better: "lower", layer: "workloads", moves: "throughput_per_s on grid-cold", def: "workloads.Build calls"},

	// core
	{name: "core.new_ms", unit: "ms", better: "lower", layer: "core", moves: "throughput_per_s on grid-cold", def: "summed core.New time"},
	{name: "core.warmup_ms", unit: "ms", better: "lower", layer: "core", moves: "throughput_per_s on hotloop", def: "summed Core.RunContext(ctx, warmup, 0) time"},
	{name: "core.measure_ms", unit: "ms", better: "lower", layer: "core", moves: "throughput_per_s on hotloop; ~25% of grid-cold", def: "summed Core.RunContext(ctx, 0, measure) time"},
	{name: "core.ns_per_cycle", unit: "ns", better: "lower", layer: "core", moves: "throughput_per_s on hotloop", def: "measure time / measured simulated cycles"},
	{name: "core.ns_per_uop", unit: "ns", better: "lower", layer: "core", moves: "throughput_per_s on hotloop", def: "measure time / committed uops"},
	{name: "core.alloc_bytes_per_kcycle", unit: "B/kcycle", better: "lower", layer: "core", moves: "throughput_per_s on hotloop", def: "heap bytes allocated during measure per 1000 cycles (hotloop only, where cells run one at a time; 0 elsewhere); must stay 0"},

	// core counts (exact)
	{name: "core.cycles", unit: "count", better: "lower", layer: "core", moves: "exact: must not move on speed-only changes", def: "measured simulated cycles, summed over simulated cells"},
	{name: "core.committed", unit: "count", better: "higher", layer: "core", moves: "exact", def: "committed uops"},
	{name: "core.fetched_uops", unit: "count", better: "lower", layer: "core", moves: "exact", def: "fetched uops"},
	{name: "core.squashed_uops", unit: "count", better: "lower", layer: "core", moves: "exact", def: "squashed uops"},
	{name: "core.branch_mispredicts", unit: "count", better: "lower", layer: "core", moves: "exact", def: "branch mispredictions"},
	{name: "core.stall_rob", unit: "count", better: "lower", layer: "core", moves: "exact", def: "rename cycles stalled on a full ROB"},
	{name: "core.stall_iq", unit: "count", better: "lower", layer: "core", moves: "exact", def: "rename cycles stalled on a full IQ"},
	{name: "core.stall_freelist", unit: "count", better: "lower", layer: "core", moves: "exact", def: "rename cycles stalled on an empty free list"},

	// refcount / moveelim / smb / cache / dram (exact)
	{name: "refcount.shares", unit: "count", better: "higher", layer: "refcount", moves: "exact: part of the output digest", def: "successful ME + SMB shares"},
	{name: "refcount.share_fails", unit: "count", better: "lower", layer: "refcount", moves: "exact", def: "shares aborted (full, saturated or unsupported kind)"},
	{name: "refcount.commit_checks", unit: "count", better: "lower", layer: "refcount", moves: "exact", def: "commit-time overwrite probes"},
	{name: "refcount.restores", unit: "count", better: "lower", layer: "refcount", moves: "exact", def: "checkpoint restorations"},
	{name: "moveelim.eliminated", unit: "count", better: "higher", layer: "moveelim", moves: "exact", def: "moves eliminated at rename"},
	{name: "smb.bypassed", unit: "count", better: "higher", layer: "smb", moves: "exact", def: "committed SMB-bypassed loads"},
	{name: "cache.l1d_misses", unit: "count", better: "lower", layer: "cache", moves: "exact", def: "L1D misses"},
	{name: "cache.l2_misses", unit: "count", better: "lower", layer: "cache", moves: "exact", def: "L2 misses"},
	{name: "dram.reads", unit: "count", better: "lower", layer: "dram", moves: "exact", def: "DRAM reads"},

	// sim
	{name: "sim.run_ms_p50", unit: "ms", better: "lower", layer: "sim", moves: "throughput_per_s on hotloop, req_ms_p50 on serve-warm", def: "median time a request spends in the Runner: hotloop Runner.Run span, grid-cold store lookup to result put (includes waiting for a worker slot), serve-warm /v1/run settled - dispatched"},
	{name: "sim.run_ms_p90", unit: "ms", better: "lower", layer: "sim", moves: "as sim.run_ms_p50", def: "90th percentile of the same (0 when fewer than 10 samples lie beyond it)"},
	{name: "sim.exec_ms", unit: "ms", better: "lower", layer: "sim", moves: "throughput_per_s on hotloop and grid-cold", def: "summed executor time (the traced copy of sim.simulate)"},
	{name: "sim.runner_overhead_ms", unit: "ms", better: "lower", layer: "sim", moves: "throughput_per_s on grid-cold", def: "summed run - exec - store calls per simulated request; on grid-cold, where the gap before exec is waiting for a worker slot, only the Runner's work between exec and the result put"},
	{name: "sim.worker_busy_frac", unit: "fraction", better: "higher", layer: "sim", moves: "throughput_per_s on grid-cold", def: "summed exec time / (workers x measured wall time)"},
	{name: "sim.snapshot_us", unit: "us", better: "lower", layer: "sim", moves: "throughput_per_s on grid-cold (small)", def: "mean sim.Snapshot time"},
	{name: "sim.store_put_ms", unit: "ms", better: "lower", layer: "sim", moves: "throughput_per_s on grid-cold", def: "mean time from the executor's return to the result's backend put completing (envelope encode + put)"},
	{name: "sim.store_load_ms", unit: "ms", better: "lower", layer: "sim", moves: "req_ms_p50 on serve-warm", def: "mean store read: serve-warm /v1/results settled - accepted (backend get + envelope decode); elsewhere the backend get of the lookup"},
	{name: "sim.simulated", unit: "count", better: "lower", layer: "sim", moves: "exact: 0 on serve-warm, unique requests on grid-cold", def: "Runner simulations in the traced phase"},
	{name: "sim.mem_hits", unit: "count", better: "higher", layer: "sim", moves: "req_ms_p50 on serve-warm", def: "Runner in-memory hits"},
	{name: "sim.disk_hits", unit: "count", better: "higher", layer: "sim", moves: "req_ms_p50 on serve-warm", def: "Runner store hits"},

	// objstore
	{name: "objstore.get_ms_p50", unit: "ms", better: "lower", layer: "objstore", moves: "req_ms_p50 on serve-warm", def: "median Backend.Get time (results store and lease area)"},
	{name: "objstore.get_ms_p99", unit: "ms", better: "lower", layer: "objstore", moves: "req_ms_p50 on serve-warm", def: "99th percentile Backend.Get time (0 when fewer than 10 samples lie beyond it)"},
	{name: "objstore.put_ms_p50", unit: "ms", better: "lower", layer: "objstore", moves: "throughput_per_s on grid-cold (small)", def: "median Backend.Put time"},
	{name: "objstore.put_ms_p99", unit: "ms", better: "lower", layer: "objstore", moves: "throughput_per_s on grid-cold (small)", def: "99th percentile Backend.Put time (0 when fewer than 10 samples lie beyond it)"},
	{name: "objstore.put_if_absent_ms_p50", unit: "ms", better: "lower", layer: "objstore", moves: "throughput_per_s on grid-cold (small)", def: "median Backend.PutIfAbsent time (lease claims)"},
	{name: "objstore.gets", unit: "count", better: "lower", layer: "objstore", moves: "-", def: "Backend.Get calls"},
	{name: "objstore.puts", unit: "count", better: "lower", layer: "objstore", moves: "-", def: "Backend.Put calls"},
	{name: "objstore.put_if_absents", unit: "count", better: "lower", layer: "objstore", moves: "-", def: "Backend.PutIfAbsent calls"},
	{name: "objstore.lists", unit: "count", better: "lower", layer: "objstore", moves: "-", def: "Backend.List calls"},
	{name: "objstore.get_bytes", unit: "B", better: "lower", layer: "objstore", moves: "req_ms_p50 on serve-warm", def: "bytes returned by Backend.Get"},
	{name: "objstore.put_bytes", unit: "B", better: "lower", layer: "objstore", moves: "throughput_per_s on grid-cold (small)", def: "bytes written by Backend.Put and PutIfAbsent"},

	// scenario
	{name: "scenario.expand_ms", unit: "ms", better: "lower", layer: "scenario", moves: "setup_s on grid-cold", def: "scenario.Spec.Expand time in the traced set-up"},

	// fleet
	{name: "fleet.lease_ms", unit: "ms", better: "lower", layer: "fleet", moves: "throughput_per_s on grid-cold (small)", def: "summed lease-area backend time"},
	{name: "fleet.lease_ops", unit: "count", better: "lower", layer: "fleet", moves: "throughput_per_s on grid-cold (small)", def: "lease-area backend calls"},
	{name: "fleet.shards", unit: "count", better: "lower", layer: "fleet", moves: "-", def: "shards drained"},
	{name: "fleet.taken_over", unit: "count", better: "lower", layer: "fleet", moves: "must be 0", def: "shards seized from a stalled peer"},

	// dispatch
	{name: "dispatch.run_rtt_ms_p50", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "median client-side dispatch.HTTP.Execute time"},
	{name: "dispatch.run_rtt_ms_p99", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p99 on serve-warm", def: "99th percentile of the same (0 when fewer than 10 samples lie beyond it)"},
	{name: "dispatch.results_rtt_ms_p50", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "median client-side dispatch.HTTP.Result time (succeeded reads)"},
	{name: "dispatch.results_rtt_ms_p99", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p99 on serve-warm", def: "99th percentile of the same (0 when fewer than 10 samples lie beyond it)"},
	{name: "dispatch.admit_ms", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "mean dispatched - accepted of /v1/run, from /v1/requests/recent"},
	{name: "dispatch.settle_ms", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "mean settled - dispatched of /v1/run"},
	{name: "dispatch.encode_ms", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "mean encoded - settled of /v1/run and /v1/results"},
	{name: "dispatch.wire_ms", unit: "ms", better: "lower", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "mean client RTT - mean server encoded - accepted"},
	{name: "dispatch.rejected_429", unit: "count", better: "lower", layer: "dispatch", moves: "throughput_per_s on serve-warm", def: "requests refused by admission"},
	{name: "dispatch.not_found_404", unit: "count", better: "lower", layer: "dispatch", moves: "error_rate on serve-warm", def: "results reads answered 404 (the unescaped-key defect)"},
	{name: "dispatch.hit_rate", unit: "fraction", better: "higher", layer: "dispatch", moves: "req_ms_p50 on serve-warm", def: "share of /v1/run answers served from the Runner's memory"},

	// go runtime
	{name: "go.gc_cycles", unit: "count", better: "lower", layer: "go", moves: "throughput_per_s on grid-cold, peak_rss_mb", def: "completed GC cycles in the traced phase"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", layer: "go", moves: "req_ms_p99 on serve-warm", def: "summed stop-the-world GC pause time in the traced phase"},
	{name: "go.alloc_mb_per_s", unit: "MB/s", better: "lower", layer: "go", moves: "throughput_per_s on grid-cold, peak_rss_mb", def: "heap allocation rate in the traced phase"},

	// the tracer itself
	{name: "trace.spans", unit: "count", better: "lower", layer: "trace", moves: "-", def: "spans recorded in the traced phase"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower", layer: "trace", moves: "-", def: "1 - traced throughput_per_s / untraced throughput_per_s within the same run"},
}

// workloadFigure is a workload-specific end-to-end figure, printed above
// the result line with its unit but not gated.
type workloadFigure struct {
	name, unit, workloads, def string
}

var workloadFigures = []workloadFigure{
	{"sim_cycles_per_s", "cycles/s", "hotloop, grid-cold", "hotloop: = throughput_per_s; grid-cold: measured simulated cycles / summed drain wall time"},
	{"cells_per_s", "cells/s", "hotloop, grid-cold", "hotloop: cells stored / summed Runner.Run wall time; grid-cold: = throughput_per_s"},
	{"ok_req_per_s", "req/s", "serve-warm", "median over 0.5 s windows of succeeded requests per second (= throughput_per_s there)"},
	{"req_ms_p50", "ms", "serve-warm", "median client-side latency of succeeded requests"},
	{"req_ms_p99", "ms", "serve-warm", "99th percentile of the same, with its sample count"},
	{"error_rate", "fraction", "all", "(failed ops + known-defect 404s) / attempted ops (typed error, HTTP non-2xx, or digest mismatch)"},
	{"cpu_ms_per_op", "ms", "all", "process CPU time over the timed regions / succeeded ops; shows when the host, not the code, changed speed"},
}

// printList writes the listing mode's table: workloads, then every
// metric with its unit, layer and what it should move.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadList {
		fmt.Fprintf(w, "  %-11s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (--trace 0; gated, with their bound):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %-3s %-6s bound %.2f  %s\n", m.name, m.unit, m.better, m.bound, m.def)
	}
	fmt.Fprintln(w, "\nworkload figures (printed above the result line, not gated):")
	for _, f := range workloadFigures {
		fmt.Fprintf(w, "  %-16s %-9s %-19s %s\n", f.name, f.unit, f.workloads, f.def)
	}
	fmt.Fprintln(w, "\nper-layer metrics (--trace 1):")
	fmt.Fprintf(w, "  %-30s %-9s %-6s %-9s %s\n", "name", "unit", "better", "layer", "should move")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-9s %-6s %-9s %s\n", m.name, m.unit, m.better, m.layer, m.moves)
	}
}

// metricJSON is one value of the result line's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the values of defs out of vals, in definition order;
// a definition missing from vals is a bug in the workload code.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricJSON, error) {
	out := make(map[string]metricJSON, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not produced: %s", strings.Join(missing, " "))
	}
	return out, nil
}
