package program

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
)

// buildCounterLoop builds: r0 = 0; loop: r0 += 1; if r0 < n goto loop;
// then an unconditional self-loop at "end".
func buildCounterLoop(n uint64) *Program {
	b := NewBuilder("counter", 0x1000)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(0), Imm: 0, Width: 64})
	b.Label("loop")
	b.Emit(SInst{Op: isa.ALU, Sem: SemAddImm, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(0), Imm: 1, Width: 64})
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrCond, Cond: CondLTImm,
		Src: [2]isa.Reg{isa.IntR(0)}, Imm: n, Width: 64}, "loop")
	b.Label("end")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "end")
	return b.MustBuild()
}

func TestExecutorCounterLoop(t *testing.T) {
	p := buildCounterLoop(5)
	e := NewExecutor(p)
	var u isa.Uop
	takenCount := 0
	for i := 0; i < 50; i++ {
		if !e.Next(&u) {
			t.Fatal("executor ran off code")
		}
		if u.Op == isa.Branch && u.Kind == isa.BrCond && u.Taken {
			takenCount++
		}
		if u.Op == isa.Branch && u.Kind == isa.BrUncond {
			break
		}
	}
	// r0: 1..5; branch taken while r0 < 5, i.e., for r0=1..4.
	if takenCount != 4 {
		t.Fatalf("loop branch taken %d times, want 4", takenCount)
	}
}

func TestExecutorMemory(t *testing.T) {
	b := NewBuilder("mem", 0x1000)
	b.InitMem(0x8000, 99)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(1), Imm: 0x8000, Width: 64})
	b.Emit(SInst{Op: isa.Load, Sem: SemLoad, Dest: isa.IntR(2), AddrReg: isa.IntR(1), Imm: 0, Width: 64})
	b.Emit(SInst{Op: isa.ALU, Sem: SemAddImm, Src: [2]isa.Reg{isa.IntR(2)}, Dest: isa.IntR(3), Imm: 1, Width: 64})
	b.Emit(SInst{Op: isa.Store, Sem: SemStore, Src: [2]isa.Reg{isa.IntR(3)}, AddrReg: isa.IntR(1), Imm: 8, Width: 64})
	b.Emit(SInst{Op: isa.Load, Sem: SemLoad, Dest: isa.IntR(4), AddrReg: isa.IntR(1), Imm: 8, Width: 64})
	b.Label("spin")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "spin")
	p := b.MustBuild()

	e := NewExecutor(p)
	var u isa.Uop
	var vals []uint64
	for i := 0; i < 5; i++ {
		e.Next(&u)
		vals = append(vals, u.Value)
	}
	if vals[1] != 99 {
		t.Fatalf("load read %d, want 99 (InitMem)", vals[1])
	}
	if vals[3] != 100 {
		t.Fatalf("store wrote %d, want 100", vals[3])
	}
	if vals[4] != 100 {
		t.Fatalf("reload read %d, want 100", vals[4])
	}
}

func TestExecutorMoveZeroExtend(t *testing.T) {
	b := NewBuilder("mov", 0x1000)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(0), Imm: 0xFFFF_FFFF_1234_5678, Width: 64})
	b.Emit(SInst{Op: isa.Move, Sem: SemMov, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(1), Width: 32})
	b.Emit(SInst{Op: isa.Move, Sem: SemMov, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(2), Width: 64})
	b.Label("spin")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "spin")
	p := b.MustBuild()
	e := NewExecutor(p)
	var u isa.Uop
	e.Next(&u)
	e.Next(&u)
	if u.Value != 0x1234_5678 {
		t.Fatalf("32-bit move = %#x, want zero-extended low half", u.Value)
	}
	e.Next(&u)
	if u.Value != 0xFFFF_FFFF_1234_5678 {
		t.Fatalf("64-bit move = %#x", u.Value)
	}
}

func TestCallReturnPairing(t *testing.T) {
	b := NewBuilder("call", 0x1000)
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrCall, Cond: CondAlways, Width: 64}, "fn")
	b.Label("after")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "after")
	b.Label("fn")
	b.Emit(SInst{Op: isa.ALU, Sem: SemAddImm, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(0), Imm: 1, Width: 64})
	b.Emit(SInst{Op: isa.Branch, Kind: isa.BrRet, Cond: CondAlways, Width: 64})
	p := b.MustBuild()
	e := NewExecutor(p)
	var u isa.Uop
	e.Next(&u) // call
	if !u.Taken || u.Target != p.Entry()+8 {
		t.Fatalf("call target %#x", u.Target)
	}
	e.Next(&u) // fn body
	e.Next(&u) // ret
	if u.Kind != isa.BrRet || u.Target != p.Entry()+4 {
		t.Fatalf("ret to %#x, want %#x", u.Target, p.Entry()+4)
	}
}

func TestWrongPathUopSynthesis(t *testing.T) {
	p := buildCounterLoop(5)
	// The loop-body add is at entry+4.
	var u isa.Uop
	if !WrongPathUop(p, p.Entry()+4, 1<<63, 0, &u) {
		t.Fatal("wrong-path fetch failed on valid PC")
	}
	if !u.WrongPath || u.Op != isa.ALU || u.Dest != isa.IntR(0) {
		t.Fatalf("synthesized µop wrong: %+v", u)
	}
	if WrongPathUop(p, 0xDEAD000, 0, 0, &u) {
		t.Fatal("wrong-path fetch succeeded off the program")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", 0x1000)
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label not reported")
	}
	b2 := NewBuilder("dup", 0x1000)
	b2.Label("x")
	b2.Emit(SInst{Op: isa.Nop})
	b2.Label("x")
	b2.Emit(SInst{Op: isa.Nop})
	if _, err := b2.Build(); err == nil {
		t.Fatal("duplicate label not reported")
	}
	if _, err := NewBuilder("empty", 0).Build(); err == nil {
		t.Fatal("empty program not reported")
	}
}

// TestBuilderRejectsUnalignedInitMem: memory is seeded a word at a time,
// so an address off the 8-byte grid is a workload bug that Build names
// instead of dropping.
func TestBuilderRejectsUnalignedInitMem(t *testing.T) {
	b := NewBuilder("unaligned", 0x1000)
	b.InitMem(0x8000, 1)
	b.InitMem(0x8004, 2)
	b.InitMem(0x8009, 3)
	b.Emit(SInst{Op: isa.Nop})
	_, err := b.Build()
	if err == nil {
		t.Fatal("unaligned InitMem address not reported")
	}
	if !strings.Contains(err.Error(), "0x8004") {
		t.Fatalf("error %q does not name the first unaligned address 0x8004", err)
	}
}

// TestInitWordsOrdered: the image reads back in ascending byte-address
// order, stored zeros included and rewrites resolved to the last value.
func TestInitWordsOrdered(t *testing.T) {
	b := NewBuilder("image", 0x1000)
	seeds := [][2]uint64{{0x10_0000, 7}, {0x8, 0}, {0x8000, 5}, {0x8, 9}, {0x7ff8, 4}}
	for _, s := range seeds {
		b.InitMem(s[0], s[1])
	}
	b.Emit(SInst{Op: isa.Nop})
	p := b.MustBuild()
	var got [][2]uint64
	for a, v := range p.InitWords() {
		got = append(got, [2]uint64{a, v})
	}
	want := [][2]uint64{{0x8, 9}, {0x7ff8, 4}, {0x8000, 5}, {0x10_0000, 7}}
	if len(got) != len(want) {
		t.Fatalf("InitWords = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InitWords = %v, want %v", got, want)
		}
	}
}

// storeLoadProgram stores r0 to 0x8000, then loads 0x8000 and 0x8008
// into r1 and r2 and spins. The image seeds 0x8000 = 11, 0x8008 = 22,
// plus a word on a second page so copying the image visits two pages.
func storeLoadProgram(value uint64) *Program {
	b := NewBuilder("isolation", 0x1000)
	b.InitMem(0x8000, 11)
	b.InitMem(0x8008, 22)
	b.InitMem(0x10_0000, 33)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(0), Imm: value, Width: 64})
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(3), Imm: 0x8000, Width: 64})
	b.Emit(SInst{Op: isa.Store, Sem: SemStore, Src: [2]isa.Reg{isa.IntR(0)}, AddrReg: isa.IntR(3), Width: 64})
	b.Emit(SInst{Op: isa.Load, Sem: SemLoad, Dest: isa.IntR(1), AddrReg: isa.IntR(3), Width: 64})
	b.Emit(SInst{Op: isa.Load, Sem: SemLoad, Dest: isa.IntR(2), AddrReg: isa.IntR(3), Imm: 8, Width: 64})
	b.Label("spin")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "spin")
	return b.MustBuild()
}

// TestExecutorsIsolated: executors built from one Program each own their
// memory. A store through one is invisible to a sibling and to an
// executor created afterwards, and the Program's image is unchanged.
func TestExecutorsIsolated(t *testing.T) {
	p := storeLoadProgram(99)
	a, b := NewExecutor(p), NewExecutor(p)
	var u isa.Uop
	for i := 0; i < 4; i++ {
		a.Next(&u) // movs, store 99, reload
	}
	if u.Value != 99 {
		t.Fatalf("executor reloaded %d after its own store, want 99", u.Value)
	}
	if got := b.load(0x8000); got != 11 {
		t.Fatalf("sibling executor sees %d at 0x8000, want the seed 11", got)
	}
	if got := NewExecutor(p).load(0x8000); got != 11 {
		t.Fatalf("later executor sees %d at 0x8000, want the seed 11", got)
	}
	for addr, v := range p.InitWords() {
		if addr == 0x8000 && v != 11 {
			t.Fatalf("program image holds %d at 0x8000 after a store, want 11", v)
		}
	}
}

// TestExecutorsConcurrent: many goroutines clone one shared Program and
// store through their own executors at once. Under -race this proves
// the image is only read after Build.
func TestExecutorsConcurrent(t *testing.T) {
	p := storeLoadProgram(0)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				e := NewExecutor(p)
				want := g<<32 | i
				e.regs[0][0] = want
				e.pc = p.Entry() + 4 // skip the mov so r0 keeps want
				var u isa.Uop
				for k := 0; k < 4; k++ {
					e.Next(&u)
				}
				if e.regs[0][1] != want || e.regs[0][2] != 22 {
					errs <- "executor read another executor's store or lost the seed"
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestTraceWindowRandomAccess(t *testing.T) {
	p := buildCounterLoop(1000)
	w := NewTraceWindow(NewExecutor(p), 2048)
	u100 := *w.At(100)
	u50 := *w.At(50) // rewind within the window
	u100b := *w.At(100)
	if u100 != u100b {
		t.Fatal("re-reading the same index changed the µop")
	}
	if u50.Seq != 50 || u100.Seq != 100 {
		t.Fatal("sequence numbering wrong")
	}
}

func TestTraceWindowDeepRewindPanics(t *testing.T) {
	p := buildCounterLoop(100000)
	w := NewTraceWindow(NewExecutor(p), 1024)
	w.At(5000)
	defer func() {
		if recover() == nil {
			t.Fatal("deep rewind did not panic")
		}
	}()
	w.At(10)
}
