package main

import (
	"strings"

	"repro/internal/dispatch"
)

// deriveLayers computes the per-layer metrics of a traced phase from
// its spans (plus the set-up spans, for scenario.expand_ms), the exact
// counters of the cells it simulated, what the workload reported
// directly, the service's stage stamps, and the Go runtime's deltas.
// Every metric of perLayer gets a value; one a workload has no data
// for is 0.
func deriveLayers(setup, spans []span, counts *cellCounts, p *phase, g goDelta) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = 0
	}
	for k, x := range p.layer {
		v[k] = x
	}
	for _, s := range setup {
		if s.Name == "scenario.Expand" {
			v["scenario.expand_ms"] += s.ms()
		}
	}

	by := make(map[string][]float64) // span name -> durations in ms
	type reqTimes struct {
		getStart, getEnd, execStart, execEnd, putStart, putEnd int64
		storeMs                                                float64
	}
	reqs := make(map[string]*reqTimes)
	rt := func(id string) *reqTimes {
		r := reqs[id]
		if r == nil {
			r = &reqTimes{}
			reqs[id] = r
		}
		return r
	}
	var runSpans []span
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s.ms())
		switch s.Name {
		case "sim.Runner.Run":
			runSpans = append(runSpans, s)
		case "sim.exec":
			r := rt(s.Req)
			r.execStart, r.execEnd = s.Start, s.End
		case "objstore.get":
			r := rt(s.Req)
			if r.getStart == 0 {
				r.getStart, r.getEnd = s.Start, s.End
			}
			r.storeMs += s.ms()
		case "objstore.put":
			r := rt(s.Req)
			r.putStart, r.putEnd = s.Start, s.End
			r.storeMs += s.ms()
		}
		if name, ok := strings.CutPrefix(s.Name, "objstore."); ok {
			countStore(v, name, s)
		}
		if name, ok := strings.CutPrefix(s.Name, "lease."); ok {
			countStore(v, name, s)
			v["fleet.lease_ms"] += s.ms()
			v["fleet.lease_ops"]++
		}
	}
	for _, op := range []string{"get", "put", "put_if_absent"} {
		var d []float64
		d = append(d, by["objstore."+op]...)
		d = append(d, by["lease."+op]...)
		v["objstore."+op+"_ms_p50"] = median(d)
		if op != "put_if_absent" {
			v["objstore."+op+"_ms_p99"] = pct(d, 0.99)
		}
	}

	// workloads and core
	v["workloads.build_ms"] = sum(by["workloads.Build"])
	v["workloads.build_ms_p50"] = median(by["workloads.Build"])
	v["workloads.builds"] = float64(len(by["workloads.Build"]))
	v["core.new_ms"] = sum(by["core.New"])
	v["core.warmup_ms"] = sum(by["core.RunContext.warmup"])
	measureMs := sum(by["core.RunContext.measure"])
	v["core.measure_ms"] = measureMs
	c := counts
	if c.cycles > 0 {
		v["core.ns_per_cycle"] = measureMs * 1e6 / float64(c.cycles)
		v["core.ns_per_uop"] = measureMs * 1e6 / float64(c.committed)
	}
	if c.allocCycles > 0 {
		v["core.alloc_bytes_per_kcycle"] = float64(c.allocBytes) * 1000 / float64(c.allocCycles)
	}
	for name, x := range map[string]uint64{
		"core.cycles": c.cycles, "core.committed": c.committed, "core.fetched_uops": c.fetched,
		"core.squashed_uops": c.squashed, "core.branch_mispredicts": c.mispredicts,
		"core.stall_rob": c.stallROB, "core.stall_iq": c.stallIQ, "core.stall_freelist": c.stallFreeList,
		"refcount.shares": c.shares, "refcount.share_fails": c.shareFails,
		"refcount.commit_checks": c.commitChecks, "refcount.restores": c.restores,
		"moveelim.eliminated": c.eliminated, "smb.bypassed": c.bypassed,
		"cache.l1d_misses": c.l1dMisses, "cache.l2_misses": c.l2Misses, "dram.reads": c.dramReads,
	} {
		v[name] = float64(x)
	}

	// sim: per simulated request, the Runner's time around the executor.
	execMs := sum(by["sim.exec"])
	v["sim.exec_ms"] = execMs
	v["sim.snapshot_us"] = mean(by["sim.Snapshot"]) * 1e3
	if p.workers > 0 && p.wall > 0 {
		v["sim.worker_busy_frac"] = execMs / (float64(p.workers) * float64(p.wall) / 1e6)
	}
	var runMs, putMs, loadMs []float64
	var overhead float64
	if len(runSpans) > 0 {
		for _, s := range runSpans {
			runMs = append(runMs, s.ms())
			r := reqs[s.Req]
			if r != nil && r.execEnd > 0 {
				overhead += s.ms() - float64(r.execEnd-r.execStart)/1e6 - r.storeMs
			}
		}
	} else {
		// Without a Runner.Run span (grid-cold's Stream), the gap between
		// the lookup and the executor is mostly waiting for a worker slot,
		// so only the Runner's work after the executor counts as overhead.
		for _, r := range reqs {
			if r.execEnd > 0 && r.getStart > 0 && r.putEnd > 0 {
				runMs = append(runMs, float64(r.putEnd-r.getStart)/1e6)
				overhead += float64(r.putStart-r.execEnd) / 1e6
			}
		}
	}
	for _, r := range reqs {
		if r.execEnd > 0 && r.putEnd > 0 {
			putMs = append(putMs, float64(r.putEnd-r.execEnd)/1e6)
		}
		if r.execEnd > 0 && r.getStart > 0 {
			loadMs = append(loadMs, float64(r.getEnd-r.getStart)/1e6)
		}
	}
	v["sim.runner_overhead_ms"] = overhead
	v["sim.store_put_ms"] = mean(putMs)
	v["sim.store_load_ms"] = mean(loadMs)

	// dispatch: client round trips from spans, server stages from the
	// service's stamps.
	var okRun, okResults []float64
	for _, s := range spans {
		if s.Failed {
			continue
		}
		switch s.Name {
		case "dispatch.HTTP.Execute":
			okRun = append(okRun, s.ms())
		case "dispatch.HTTP.Result":
			okResults = append(okResults, s.ms())
		}
	}
	v["dispatch.run_rtt_ms_p50"] = median(okRun)
	v["dispatch.run_rtt_ms_p99"] = pct(okRun, 0.99)
	v["dispatch.results_rtt_ms_p50"] = median(okResults)
	v["dispatch.results_rtt_ms_p99"] = pct(okResults, 0.99)
	if len(p.stamps) > 0 {
		stampLayers(v, p.stamps, mean(append(append([]float64(nil), okRun...), okResults...)))
		runMs = runMs[:0]
		for _, st := range p.stamps {
			if st.Endpoint == "run" && st.Status == 200 {
				runMs = append(runMs, float64(st.SettledNS-st.DispatchedNS)/1e6)
			}
		}
	}
	v["sim.run_ms_p50"] = median(runMs)
	v["sim.run_ms_p90"] = pct(runMs, 0.9)

	// go runtime
	v["go.gc_cycles"] = float64(g.gcCycles)
	v["go.gc_pause_ms"] = float64(g.pauseNS) / 1e6
	if g.secs > 0 {
		v["go.alloc_mb_per_s"] = float64(g.allocBytes) / (1 << 20) / g.secs
	}
	v["trace.spans"] = float64(len(spans))
	return v
}

// countStore folds one object-store span into the op counters.
func countStore(v map[string]float64, op string, s span) {
	switch op {
	case "get":
		v["objstore.gets"]++
		v["objstore.get_bytes"] += float64(s.Bytes)
	case "put":
		v["objstore.puts"]++
		v["objstore.put_bytes"] += float64(s.Bytes)
	case "put_if_absent":
		v["objstore.put_if_absents"]++
		v["objstore.put_bytes"] += float64(s.Bytes)
	case "list":
		v["objstore.lists"]++
	}
}

// stampLayers derives the service-side dispatch metrics from the
// service's /v1/requests/recent stamps. rttMs is the mean client round
// trip over the same requests.
func stampLayers(v map[string]float64, stamps []dispatch.RequestMetrics, rttMs float64) {
	var admit, settle, encode, server, load []float64
	runs, memory := 0, 0
	for _, st := range stamps {
		if st.Status != 200 {
			continue
		}
		ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
		switch st.Endpoint {
		case "run":
			admit = append(admit, ms(st.AcceptedNS, st.DispatchedNS))
			settle = append(settle, ms(st.DispatchedNS, st.SettledNS))
			runs++
			if st.Source == "memory" {
				memory++
			}
		case "results":
			load = append(load, ms(st.AcceptedNS, st.SettledNS))
		default:
			continue
		}
		encode = append(encode, ms(st.SettledNS, st.EncodedNS))
		server = append(server, ms(st.AcceptedNS, st.EncodedNS))
	}
	v["dispatch.admit_ms"] = mean(admit)
	v["dispatch.settle_ms"] = mean(settle)
	v["dispatch.encode_ms"] = mean(encode)
	v["dispatch.wire_ms"] = rttMs - mean(server)
	if runs > 0 {
		v["dispatch.hit_rate"] = float64(memory) / float64(runs)
	}
	v["sim.store_load_ms"] = mean(load)
}
