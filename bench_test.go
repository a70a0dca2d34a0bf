package regshare

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one Benchmark* per experiment) and reports the headline
// number of each as a custom metric. Absolute IPCs are not expected to
// match the paper (different substrate, synthetic workloads); the shapes
// are the reproduction target and are asserted by the test suite in
// internal/experiments.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// All simulations flow through the shared internal/sim runner (via the
// experiments session and regshare.RunContext), which deduplicates and
// caches results, so repeated benchmark iterations after the first are
// nearly free.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/refcount"
	"repro/internal/regfile"
	"repro/internal/smb"
	"repro/internal/tage"
	"repro/internal/workloads"
)

var (
	sessOnce sync.Once
	sess     *experiments.Session
)

func session() *experiments.Session {
	sessOnce.Do(func() {
		sess = experiments.NewSession(experiments.QuickRunLengths)
	})
	return sess
}

func reportGMean(b *testing.B, series []experiments.Series) {
	for _, s := range series {
		b.ReportMetric((s.GMean-1)*100, s.Name+"_gmean_%")
	}
}

// gmeanPct returns the gmean speedup, in percent, of the series labelled
// label, failing the benchmark when the figure has no such series: a
// renamed label must not report a silent -100%.
func gmeanPct(b *testing.B, series []experiments.Series, label string) float64 {
	b.Helper()
	for _, s := range series {
		if s.Name == label {
			return (s.GMean - 1) * 100
		}
	}
	b.Fatalf("no series labelled %q", label)
	return 0
}

// BenchmarkTable1Config renders the configuration table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1().String()
	}
}

// BenchmarkFig4Baseline regenerates Figure 4 (baseline IPC, traps, false
// dependencies across the 36 benchmarks).
func BenchmarkFig4Baseline(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		_ = s.Fig4()
	}
	res := s.Baseline()
	var ipcs []float64
	for _, r := range res {
		ipcs = append(ipcs, r.IPC)
	}
	sum := 0.0
	for _, v := range ipcs {
		sum += v
	}
	b.ReportMetric(sum/float64(len(ipcs)), "mean_IPC")
}

// BenchmarkFig5aMoveElim regenerates Figure 5a (ME speedup vs ISRB size).
func BenchmarkFig5aMoveElim(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("fig5a")
	}
	reportGMean(b, series)
}

// BenchmarkFig5bElimRate regenerates Figure 5b (% µops eliminated).
func BenchmarkFig5bElimRate(b *testing.B) {
	s := session()
	var rates map[string]float64
	for i := 0; i < b.N; i++ {
		_, rates = s.Fig5b()
	}
	sum := 0.0
	for _, v := range rates {
		sum += v
	}
	b.ReportMetric(100*sum/float64(len(rates)), "mean_elim_%")
}

// BenchmarkFig6aSMB regenerates Figure 6a (SMB speedup vs ISRB size and
// distance predictor flavour).
func BenchmarkFig6aSMB(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("fig6a")
	}
	reportGMean(b, series)
}

// BenchmarkFig6bTrapReduction regenerates Figure 6b.
func BenchmarkFig6bTrapReduction(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		_ = s.Fig6b()
	}
}

// BenchmarkFig6cLazyReclaim regenerates Figure 6c (eager vs lazy reclaim).
func BenchmarkFig6cLazyReclaim(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("fig6c")
	}
	reportGMean(b, series)
}

// BenchmarkFig7Combined regenerates Figure 7 (ME+SMB vs ISRB size).
func BenchmarkFig7Combined(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("fig7")
	}
	reportGMean(b, series)
}

// BenchmarkDDTSizing regenerates the §3.1 DDT capacity study.
func BenchmarkDDTSizing(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("ddt")
	}
	reportGMean(b, series)
}

// BenchmarkStoreOnlySMB regenerates the §6.2 store-only ablation.
func BenchmarkStoreOnlySMB(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("storeonly")
	}
	reportGMean(b, series)
}

// BenchmarkCounterWidth regenerates the §6.3 counter-width study.
func BenchmarkCounterWidth(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("cwidth")
	}
	b.ReportMetric(gmeanPct(b, series, "3-bit"), "3bit_gmean_%")
	b.ReportMetric(gmeanPct(b, series, "unlimited-32b"), "unlimited_gmean_%")
}

// BenchmarkISRBTraffic regenerates the §6.3 port-pressure statistics.
func BenchmarkISRBTraffic(b *testing.B) {
	s := session()
	for i := 0; i < b.N; i++ {
		_ = s.ISRBTraffic()
	}
}

// BenchmarkStorageTable regenerates the storage accounting (§4.2/§4.3.3).
func BenchmarkStorageTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.StorageTable().String()
	}
}

// --- ablation benches beyond the paper (DESIGN.md §4) ------------------

// BenchmarkAblationRecoveryScheme compares checkpointed ISRB recovery
// against per-register counters' sequential rollback on a branchy
// workload.
func BenchmarkAblationRecoveryScheme(b *testing.B) {
	run := func(kind core.TrackerKind) float64 {
		cfg := Combined(0)
		cfg.Tracker = core.TrackerConfig{Kind: kind, Entries: 64, CounterBits: 8}
		r, err := RunContext(context.Background(), RunSpec{Benchmark: "gobmk", Config: cfg, Warmup: 5000, Measure: 40000})
		if err != nil {
			b.Fatal(err)
		}
		return r.Stats.IPC()
	}
	var isrb, counters float64
	for i := 0; i < b.N; i++ {
		isrb = run(core.TrackerISRB)
		counters = run(core.TrackerCounters)
	}
	b.ReportMetric(isrb, "isrb_IPC")
	b.ReportMetric(counters, "seqwalk_IPC")
}

// BenchmarkAblationReclaimFlag measures the §4.3.4 reclaim-flag filter:
// the fraction of commits that skip the ISRB CAM.
func BenchmarkAblationReclaimFlag(b *testing.B) {
	var skipped, checks uint64
	for i := 0; i < b.N; i++ {
		cfg := Combined(32)
		r, err := RunContext(context.Background(), RunSpec{Benchmark: "hmmer", Config: cfg, Warmup: 5000, Measure: 40000})
		if err != nil {
			b.Fatal(err)
		}
		skipped = r.Stats.ReclaimSkippedByFlag
		checks = r.Stats.ReclaimChecks
	}
	b.ReportMetric(100*float64(skipped)/float64(skipped+checks), "cam_skipped_%")
}

// BenchmarkAblationPrefetcher measures the stride prefetcher's effect on a
// streaming benchmark (substrate validation).
func BenchmarkAblationPrefetcher(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		cfg := Baseline()
		results, err := StreamSpecs(context.Background(), []RunSpec{
			{Benchmark: "libquantum", Config: cfg, Warmup: 5000, Measure: 30000},
			{Benchmark: "libquantum", Config: func() Config {
				c := cfg
				c.Mem.PrefEnable = false
				return c
			}(), Warmup: 5000, Measure: 30000},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		on = results[0].Stats.IPC()
		off = results[1].Stats.IPC()
	}
	b.ReportMetric(on, "prefetch_on_IPC")
	b.ReportMetric(off, "prefetch_off_IPC")
}

// --- microbenchmarks of the core data structures ------------------------

// BenchmarkSimulatorThroughput measures raw simulation speed.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := workloads.Resolve("crafty")
	prog := workloads.Build(spec)
	c := core.New(Combined(32), prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cycle()
	}
}

// BenchmarkISRBTrySharePlusReclaim measures the hot tracker path.
func BenchmarkISRBTrySharePlusReclaim(b *testing.B) {
	isrb := refcount.NewISRB(32, 3)
	p := regfile.MakePhys(isa.IntReg, 42)
	for i := 0; i < b.N; i++ {
		isrb.TryShare(p, refcount.KindSMB, isa.IntR(1), isa.NoReg)
		isrb.OnCommitOverwrite(p, isa.IntR(0))
		isrb.OnCommitOverwrite(p, isa.IntR(1))
	}
}

// BenchmarkISRBCheckpointRestore measures checkpoint capture + restore.
func BenchmarkISRBCheckpointRestore(b *testing.B) {
	isrb := refcount.NewISRB(32, 3)
	for i := 0; i < 16; i++ {
		isrb.TryShare(regfile.MakePhys(isa.IntReg, i), refcount.KindSMB, isa.IntR(1), isa.NoReg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := isrb.Checkpoint()
		isrb.Restore(s)
	}
}

// BenchmarkTAGEBranchPredict measures the front-end predictor.
func BenchmarkTAGEBranchPredict(b *testing.B) {
	p := tage.NewBranchPredictor(tage.DefaultBranchConfig())
	var h tage.History
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		pr := p.Predict(pc, &h)
		taken := i%3 == 0
		p.Update(pc, &pr, taken)
		h.Push(taken, pc)
	}
}

// BenchmarkDistancePredict measures the SMB distance predictor.
func BenchmarkDistancePredict(b *testing.B) {
	p := smb.NewTAGEDistance()
	var h tage.History
	for i := 0; i < b.N; i++ {
		pc := uint64(0x2000 + (i%32)*4)
		p.Train(pc, &h, uint16(7+(i%4)))
		p.Predict(pc, &h)
	}
}

// BenchmarkWorkloadGeneration measures program construction.
func BenchmarkWorkloadGeneration(b *testing.B) {
	spec, _ := workloads.Resolve("gcc")
	for i := 0; i < b.N; i++ {
		_ = workloads.Build(spec)
	}
}

// BenchmarkFunctionalExecution measures the trace generator.
func BenchmarkFunctionalExecution(b *testing.B) {
	spec, _ := workloads.Resolve("gcc")
	prog := workloads.Build(spec)
	e := program.NewExecutor(prog)
	var u isa.Uop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Next(&u)
	}
}

// BenchmarkExtROB512Lazy regenerates the §6.2 ROB-512 lazy-reclaim check.
func BenchmarkExtROB512Lazy(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("rob512")
	}
	b.ReportMetric(gmeanPct(b, series, "rob512-lazy"), "rob512_lazy_gmean_%")
	b.ReportMetric(gmeanPct(b, series, "rob512-eager"), "rob512_eager_gmean_%")
}

// BenchmarkExtSingleBitME regenerates §6.3 footnote 10.
func BenchmarkExtSingleBitME(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("singlebit")
	}
	b.ReportMetric(gmeanPct(b, series, "ME-16x1b"), "1bit_gmean_%")
}

// BenchmarkExtDistanceHistory sweeps the distance predictor geometry.
func BenchmarkExtDistanceHistory(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("disthist")
	}
	b.ReportMetric(gmeanPct(b, series, "paper-2..64"), "paper_geom_gmean_%")
	b.ReportMetric(gmeanPct(b, series, "pc-only"), "pconly_gmean_%")
}

// BenchmarkExtTrackerComparison quantifies §4.2's scheme comparison.
func BenchmarkExtTrackerComparison(b *testing.B) {
	s := session()
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		_, series = s.Scenario("trackers")
	}
	b.ReportMetric(gmeanPct(b, series, "ISRB-32x3b"), "isrb_gmean_%")
	b.ReportMetric(gmeanPct(b, series, "MIT-16"), "mit_gmean_%")
	b.ReportMetric(gmeanPct(b, series, "counters"), "counters_gmean_%")
}
