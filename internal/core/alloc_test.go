package core

// Steady-state allocation regression tests: after warmup, the per-cycle
// simulation loop must not touch the heap at all — map-backed reference
// counting, per-branch RAS/tracker snapshot allocation and per-call
// scratch buffers used to dominate the hot loop's profile.

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/workloads"
)

// moveChainProgram is a loop of eliminable moves interleaved with
// single-cycle adds: every move is an ME candidate, so rename exercises
// the tracker share path at full width.
func moveChainProgram() *program.Program {
	return loopProgram(func(b *program.Builder) {
		for i := 0; i < 6; i++ {
			b.Emit(program.SInst{Op: isa.Move, Sem: program.SemMov,
				Src: [2]isa.Reg{isa.IntR(8)}, Dest: isa.IntR(9), Width: 64})
			b.Emit(program.SInst{Op: isa.ALU, Sem: program.SemAddImm,
				Src: [2]isa.Reg{isa.IntR(9)}, Dest: isa.IntR(8), Imm: 1, Width: 64})
		}
	})
}

// steadyCore builds a core with the full optimization stack and runs it
// past every warmup transient (structure growth, page faults in the
// functional memory, pool filling).
func steadyCore(tb testing.TB, kind TrackerKind, bench string) *Core {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.ME.Enabled = true
	cfg.SMB.Enabled = true
	cfg.SMB.BypassCommitted = true
	cfg.Tracker.Kind = kind
	spec, err := workloads.Resolve(bench)
	if err != nil {
		tb.Fatal(err)
	}
	c := New(cfg, workloads.Build(spec))
	c.Run(0, 100_000)
	return c
}

// TestSteadyStateCycleDoesNotAllocate pins zero heap allocations per
// cycle in the steady-state loop for every tracker scheme.
func TestSteadyStateCycleDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression needs the long warmup")
	}
	for _, kind := range []TrackerKind{TrackerISRB, TrackerUnlimited, TrackerRDA, TrackerMIT, TrackerCounters} {
		c := steadyCore(t, kind, "crafty")
		per := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1000; i++ {
				c.Cycle()
			}
		})
		if per != 0 {
			t.Errorf("%s: %.1f allocations per 1000 steady-state cycles, want 0", kind, per)
		}
	}
}

// BenchmarkCycleISRB measures the full-pipeline per-cycle cost with the
// optimization stack on (the configuration cmd/bench pins).
func BenchmarkCycleISRB(b *testing.B) {
	c := steadyCore(b, TrackerISRB, "crafty")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cycle()
	}
}

// BenchmarkCycleUnlimited is the same loop under the ideal tracker (the
// scheme whose map-backed storage used to dominate).
func BenchmarkCycleUnlimited(b *testing.B) {
	c := steadyCore(b, TrackerUnlimited, "crafty")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cycle()
	}
}

// BenchmarkNewCore measures core construction on a built program,
// including the executor's copy of the program's memory image.
func BenchmarkNewCore(b *testing.B) {
	for _, name := range []string{"mcf", "swim"} {
		b.Run(name, func(b *testing.B) {
			spec, err := workloads.Resolve(name)
			if err != nil {
				b.Fatal(err)
			}
			prog := workloads.Build(spec)
			cfg := DefaultConfig()
			b.ReportAllocs()
			for b.Loop() {
				New(cfg, prog)
			}
		})
	}
}

// BenchmarkRenameMoveChain isolates the rename stage as far as the
// pipeline allows: a pure eliminable-move chain renames at full width
// every cycle while the scheduler and memory system stay idle, so the
// per-cycle cost is rename (ME lookups, tracker shares, checkpointing)
// plus commit-side reclaim.
func BenchmarkRenameMoveChain(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ME.Enabled = true
	cfg.Tracker.Kind = TrackerISRB
	c := New(cfg, moveChainProgram())
	c.Run(0, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cycle()
	}
}
