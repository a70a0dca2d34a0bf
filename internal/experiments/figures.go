package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/refcount"
	"repro/internal/smb"
	"repro/internal/stats"
)

// Table1 prints the machine configuration (the paper's Table 1).
func Table1() *stats.Table {
	cfg := core.DefaultConfig()
	t := stats.NewTable("Table 1: simulator configuration", "parameter", "value")
	add := func(k, v string) { t.AddRow(k, v) }
	add("front end", fmt.Sprintf("%d-wide fetch/decode/rename, %d-cycle front end", cfg.FetchWidth, cfg.FrontEndDepth))
	add("branch predictor", fmt.Sprintf("TAGE 1+%d components, %d entries; %d-entry 2-way BTB; %d-entry RAS",
		len(cfg.Branch.TAGE.Tagged), tageEntries(), cfg.Branch.BTBEntries, cfg.Branch.RASEntries))
	add("execution", fmt.Sprintf("%d-entry ROB, %d-entry IQ, %d/%d LQ/SQ, %d+%d INT/FP regs, %d-issue, %d-wide retire",
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.PhysRegsPerClass, cfg.PhysRegsPerClass,
		cfg.IssueWidth, cfg.CommitWidth))
	add("FUs", fmt.Sprintf("%dxALU(1c) %dxMulDiv(3c/25c*) %dxFP(3c) %dxFPMulDiv(5c/10c*) %dxLd/St %dxSt",
		cfg.NumALU, cfg.NumMulDiv, cfg.NumFP, cfg.NumFPMulDiv, cfg.NumLdStr, cfg.NumStr))
	add("memory dependence", fmt.Sprintf("Store Sets %d-SSIT/%d-LFST, not rolled back on squash",
		cfg.StoreSets.SSITEntries, cfg.StoreSets.LFSTEntries))
	add("STLF latency", fmt.Sprintf("%d cycles", cfg.STLFLatency))
	add("L1I", fmt.Sprintf("%dKB %d-way, %dc", cfg.Mem.L1I.SizeKB, cfg.Mem.L1I.Ways, cfg.Mem.L1I.Latency))
	add("L1D", fmt.Sprintf("%dKB %d-way, %dc, %d MSHRs", cfg.Mem.L1D.SizeKB, cfg.Mem.L1D.Ways, cfg.Mem.L1D.Latency, cfg.Mem.L1D.MSHRs))
	add("L2", fmt.Sprintf("%dKB %d-way, %dc, stride prefetcher degree %d", cfg.Mem.L2.SizeKB, cfg.Mem.L2.Ways, cfg.Mem.L2.Latency, cfg.Mem.PrefDegree))
	add("DRAM", "single channel DDR3-1600 (11-11-11), min 75 / max 185 cycles")
	add("distance predictor", "TAGE-like 1+5 components (§3.1) or NoSQ-like 2x4K")
	return t
}

func tageEntries() int {
	cfg := core.DefaultConfig()
	n := 1 << cfg.Branch.TAGE.LogBaseEntries
	for _, t := range cfg.Branch.TAGE.Tagged {
		n += 1 << t.LogEntries
	}
	return n
}

// Fig4 reports baseline IPC, memory traps and false memory dependencies
// per benchmark (the paper's Figure 4; traps and false deps are on a log
// scale there, so we report raw counts scaled per 100M µops).
func (s *Session) Fig4() *stats.Table {
	base := s.Baseline()
	t := stats.NewTable("Figure 4: baseline IPC, memory traps, false dependencies",
		"benchmark", "IPC", "traps/100M", "falsedeps/100M", "brMPKI")
	scale := 100e6 / float64(s.RL.Measure)
	for _, r := range base {
		t.AddRowF(r.Bench, r.IPC,
			uint64(float64(r.S.MemTraps)*scale),
			uint64(float64(r.S.FalseDeps)*scale),
			1000*float64(r.S.BranchMispredicts)/float64(r.S.Committed))
	}
	return t
}

// Fig5b: percentage of renamed instructions eliminated (unlimited ISRB).
func (s *Session) Fig5b() (*stats.Table, map[string]float64) {
	opt := s.runAll(func(string) core.Config { return meConfig() })
	t := stats.NewTable("Figure 5b: % of committed µops eliminated (unlimited ISRB)",
		"benchmark", "% eliminated", "candidates", "eliminated")
	rates := make(map[string]float64)
	for _, r := range opt {
		rate := r.S.ElimRate()
		rates[r.Bench] = rate
		t.AddRowF(r.Bench, fmt.Sprintf("%.2f%%", 100*rate), r.ME.Candidates, r.ME.Eliminated)
	}
	return t, rates
}

// Fig6b: reduction of memory traps and false dependencies under SMB
// (unlimited ISRB, TAGE distance predictor), for benchmarks where those
// events occur reasonably often in the baseline.
func (s *Session) Fig6b() *stats.Table {
	base := s.Baseline()
	opt := s.runAll(func(string) core.Config { return smbConfig() })
	scale := 100e6 / float64(s.RL.Measure)
	// The paper's cutoffs: >=1K traps and >=10K false deps per 100M.
	minTraps := uint64(1000 / scale)
	minFD := uint64(10000 / scale)
	if minTraps == 0 {
		minTraps = 1
	}
	if minFD == 0 {
		minFD = 1
	}
	t := stats.NewTable("Figure 6b: SMB speedup vs trap/false-dep reduction (unlimited ISRB)",
		"benchmark", "speedup", "traps base", "traps SMB", "fdeps base", "fdeps SMB", "loads bypassed")
	for i, r := range base {
		if r.S.MemTraps < minTraps && r.S.FalseDeps < minFD {
			continue
		}
		t.AddRowF(r.Bench, stats.Pct(stats.Speedup(opt[i].IPC, r.IPC)),
			r.S.MemTraps, opt[i].S.MemTraps,
			r.S.FalseDeps, opt[i].S.FalseDeps,
			fmt.Sprintf("%.1f%%", 100*opt[i].S.BypassRate()))
	}
	return t
}

// ISRBTraffic reports the §6.3 port-pressure statistics for the combined
// configuration with a 32-entry ISRB.
func (s *Session) ISRBTraffic() *stats.Table {
	opt := s.runAll(func(string) core.Config {
		cfg := core.DefaultConfig()
		cfg.ME.Enabled = true
		cfg.SMB.Enabled = true
		cfg.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: 32, CounterBits: 3}
		return cfg
	})
	t := stats.NewTable("ISRB traffic (§6.3): allocation/reclaim distances",
		"benchmark", "alloc dist", "reclaim dist", "reclaim b2b", "CAM skipped by flag")
	var ad, rd, b2b []float64
	for _, r := range opt {
		t.AddRowF(r.Bench,
			r.S.ShareDistance(), r.S.ReclaimCheckDistance(),
			fmt.Sprintf("%.1f%%", 100*r.S.ReclaimBackToBackRate()),
			r.S.ReclaimSkippedByFlag)
		if r.S.ShareAttempts > 1 {
			ad = append(ad, r.S.ShareDistance())
		}
		if r.S.ReclaimChecks > 1 {
			rd = append(rd, r.S.ReclaimCheckDistance())
			b2b = append(b2b, r.S.ReclaimBackToBackRate())
		}
	}
	t.AddRow("average",
		fmt.Sprintf("%.1f (min %.1f)", stats.Mean(ad), stats.Min(ad)),
		fmt.Sprintf("%.1f (min %.1f)", stats.Mean(rd), stats.Min(rd)),
		fmt.Sprintf("%.1f%% (max %.1f%%)", 100*stats.Mean(b2b), 100*stats.Max(b2b)), "")
	return t
}

// StorageTable reproduces the storage arithmetic of §4.2/§4.3.3/§3.1.
func StorageTable() *stats.Table {
	t := stats.NewTable("Storage accounting (§3.1, §4.2, §4.3.3)",
		"structure", "CPU storage", "per checkpoint")
	kb := func(bits int) string { return fmt.Sprintf("%.2fKB (%d bits)", refcount.KB(bits), bits) }
	bits := func(b int) string { return fmt.Sprintf("%d bits", b) }

	m := refcount.MatrixScheme(192, 168, 2)
	t.AddRow("Roth 2D matrix (Haswell: 192 ROB x 2x168 regs)", kb(m), "entire matrix")
	t.AddRow("baseline matrix scheduler (60x60)", kb(refcount.SchedulerMatrix(60)), "-")
	bm, bc := refcount.BattleMatrix(336, 4)
	t.AddRow("Battle et al. matrix (336 regs x 4 sharers)", kb(bm), bits(bc))
	for _, n := range []int{8, 16, 32} {
		cpu, ck := refcount.ISRBStorage(n, 3)
		t.AddRow(fmt.Sprintf("ISRB %d entries, 3-bit counters", n), bits(cpu), bits(ck))
	}
	t.AddRow("x86_64 rename map checkpoint", "-", bits(refcount.RenameMapCheckpointBits()))
	t.AddRow("per-register counters (336 regs, 2b)", bits(refcount.CountersCheckpointBits(336, 2)), "not checkpointable")
	t.AddRow("TAGE-like distance predictor", kb(distStorageTAGE()), "-")
	t.AddRow("NoSQ-style distance predictor", kb(distStorageNoSQ()), "-")
	t.AddRow("DDT 16K entries, 14b tags", kb(refcount.DDTStorage(16384, 14, 64)), "-")
	t.AddRow("DDT 1K entries, 5b tags", kb(refcount.DDTStorage(1024, 5, 64)), "-")
	return t
}

func distStorageTAGE() int { return smb.NewTAGEDistance().Storage() }
func distStorageNoSQ() int { return smb.NewNoSQDistance().Storage() }

// BaselineShape sanity-checks Figure 4's preconditions: IPC diversity and
// the presence of trap/false-dep benchmarks.
func (s *Session) BaselineShape() error {
	base := s.Baseline()
	var withTraps, withFD int
	for _, r := range base {
		if r.S.MemTraps > 0 {
			withTraps++
		}
		if r.S.FalseDeps > 0 {
			withFD++
		}
	}
	if withTraps < 4 {
		return fmt.Errorf("only %d benchmarks show memory traps", withTraps)
	}
	if withFD < 4 {
		return fmt.Errorf("only %d benchmarks show false dependencies", withFD)
	}
	return nil
}
