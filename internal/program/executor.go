package program

import (
	"fmt"

	"repro/internal/isa"
)

// Executor runs a Program functionally, producing the architecturally
// correct dynamic µop stream. Call stack semantics: BrCall pushes pc+4
// onto an internal return stack consumed by BrRet (the synthetic programs
// use structured calls only).
type Executor struct {
	prog *Program
	regs [2][isa.NumArchRegs]uint64
	mem  *PagedMem
	pc   uint64
	rets []uint64
	seq  uint64
}

// NewExecutor builds an executor positioned at the program entry with the
// program's initial memory and register state.
func NewExecutor(p *Program) *Executor {
	return &Executor{
		prog: p,
		regs: p.InitRegs,
		mem:  p.image.Clone(),
		pc:   p.Entry(),
	}
}

func (e *Executor) reg(r isa.Reg) uint64 {
	if !r.Valid() {
		return 0
	}
	return e.regs[r.Class][r.Index]
}

func (e *Executor) setReg(r isa.Reg, v uint64) {
	if r.Valid() {
		e.regs[r.Class][r.Index] = v
	}
}

// Memory is keyed by 8-byte word index (addr>>3 drops the byte offset
// the &^7 masking used to), so PagedMem pages cover their full span.
func (e *Executor) load(addr uint64) uint64 { return e.mem.LoadZero(addr >> 3) }
func (e *Executor) store(addr, v uint64)    { e.mem.Store(addr>>3, v) }

// evalValue computes an instruction's result value.
func (e *Executor) evalValue(in *SInst, addr uint64) uint64 {
	switch in.Sem {
	case SemAdd:
		return e.reg(in.Src[0]) + e.reg(in.Src[1])
	case SemSub:
		return e.reg(in.Src[0]) - e.reg(in.Src[1])
	case SemXor:
		return e.reg(in.Src[0]) ^ e.reg(in.Src[1])
	case SemAnd:
		return e.reg(in.Src[0]) & e.reg(in.Src[1])
	case SemShl:
		return e.reg(in.Src[0]) << (in.Imm & 63)
	case SemAndImm:
		return e.reg(in.Src[0]) & in.Imm
	case SemSubImm:
		return in.Imm - e.reg(in.Src[0])
	case SemShrImm:
		return e.reg(in.Src[0]) >> (in.Imm & 63)
	case SemAddImm:
		return e.reg(in.Src[0]) + in.Imm
	case SemMulImm:
		return e.reg(in.Src[0])*in.Imm + 0x9e3779b97f4a7c15
	case SemMovImm:
		return in.Imm
	case SemMov:
		v := e.reg(in.Src[0])
		if in.Width == 32 {
			v &= 0xFFFFFFFF // x86_64 32-bit moves zero-extend
		}
		return v
	case SemLoad:
		return e.load(addr)
	case SemStore:
		return e.reg(in.Src[0])
	default:
		return 0
	}
}

func (e *Executor) evalCond(in *SInst) bool {
	v := e.reg(in.Src[0])
	switch in.Cond {
	case CondAlways:
		return true
	case CondEQImm:
		return v == in.Imm
	case CondNEImm:
		return v != in.Imm
	case CondLTImm:
		return v < in.Imm
	case CondBitSet:
		return v>>(in.Imm&63)&1 == 1
	default:
		return false
	}
}

// Next executes one instruction and fills u with the dynamic µop. It
// returns false only if the program flows off defined code, which is a
// workload construction bug.
func (e *Executor) Next(u *isa.Uop) bool {
	in, ok := e.prog.StaticAt(e.pc)
	if !ok {
		return false
	}
	*u = isa.Uop{
		PC:          in.PC,
		Seq:         e.seq,
		Op:          in.Op,
		Kind:        in.Kind,
		Heavy:       in.Heavy,
		Src:         [isa.MaxSrcRegs]isa.Reg{in.Src[0], in.Src[1], isa.NoReg},
		Dest:        in.Dest,
		Width:       in.Width,
		FallThrough: in.PC + 4,
	}
	e.seq++

	var addr uint64
	if in.Op == isa.Load || in.Op == isa.Store {
		addr = e.reg(in.AddrReg) + in.Imm
		addr &^= 7 // keep the functional model 8-byte aligned
		u.MemAddr = addr
		if in.Op == isa.Store {
			// The address register is a real dataflow input of the store.
			u.Src[1] = in.AddrReg
		} else {
			u.Src[0] = in.AddrReg
			u.Src[1] = isa.NoReg
		}
	}

	u.Value = e.evalValue(in, addr)

	switch in.Op {
	case isa.Branch:
		taken := e.evalCond(in)
		u.Taken = taken
		switch in.Kind {
		case isa.BrCall:
			u.Taken = true
			u.Target = in.Target
			e.rets = append(e.rets, in.PC+4)
		case isa.BrRet:
			u.Taken = true
			if n := len(e.rets); n > 0 {
				u.Target = e.rets[n-1]
				e.rets = e.rets[:n-1]
			} else {
				u.Target = in.PC + 4
			}
		case isa.BrUncond:
			u.Taken = true
			u.Target = in.Target
		default: // BrCond
			u.Target = in.Target
		}
		if u.Taken {
			e.pc = u.Target
		} else {
			e.pc = in.PC + 4
		}
	case isa.Store:
		e.store(addr, u.Value)
		e.pc = in.PC + 4
	default:
		e.setReg(in.Dest, u.Value)
		e.pc = in.PC + 4
	}
	return true
}

// WrongPathUop synthesizes the µop the front-end fetches at pc on a
// mispredicted path. Register names and op class come from the static
// code; memory instructions use memAddr, the caller's record of the
// instruction's most recent correct-path effective address, which
// preserves plausible wrong-path cache behaviour. Values are unspecified:
// wrong-path results are never committed.
func WrongPathUop(p *Program, pc, seq, memAddr uint64, u *isa.Uop) bool {
	in, ok := p.StaticAt(pc)
	if !ok {
		return false
	}
	*u = isa.Uop{
		PC:          in.PC,
		Seq:         seq,
		Op:          in.Op,
		Kind:        in.Kind,
		Heavy:       in.Heavy,
		Src:         [isa.MaxSrcRegs]isa.Reg{in.Src[0], in.Src[1], isa.NoReg},
		Dest:        in.Dest,
		Width:       in.Width,
		FallThrough: in.PC + 4,
		Target:      in.Target,
		WrongPath:   true,
	}
	if in.Op == isa.Load || in.Op == isa.Store {
		u.MemAddr = memAddr &^ 7
		if in.Op == isa.Store {
			u.Src[1] = in.AddrReg
		} else {
			u.Src[0] = in.AddrReg
			u.Src[1] = isa.NoReg
		}
	}
	return true
}

// TraceWindow adapts an Executor into random-access over a sliding window
// of the correct-path stream, which is what the timing core needs: fetch
// walks forward, squashes rewind to a checkpointed position, and commit
// bounds how far back a rewind can reach.
type TraceWindow struct {
	exec *Executor
	buf  []isa.Uop
	base uint64 // stream index of buf slot (base % len)
	next uint64 // first index not yet generated
}

// NewTraceWindow wraps exec with a window of the given capacity, which
// must exceed the maximum in-flight µop count (ROB + front-end buffering).
func NewTraceWindow(exec *Executor, capacity int) *TraceWindow {
	if capacity < 1024 {
		capacity = 1024
	}
	return &TraceWindow{exec: exec, buf: make([]isa.Uop, capacity)}
}

// At returns the correct-path µop at stream index idx. Indexes must not
// precede the window (enforced by panic — it would be a core bug).
func (w *TraceWindow) At(idx uint64) *isa.Uop {
	for idx >= w.next {
		slot := &w.buf[w.next%uint64(len(w.buf))]
		if !w.exec.Next(slot) {
			panic(fmt.Sprintf("program: %s ran off code at stream index %d", w.exec.prog.Name, w.next))
		}
		slot.Seq = w.next
		w.next++
		if w.next-w.base > uint64(len(w.buf)) {
			w.base = w.next - uint64(len(w.buf))
		}
	}
	if idx < w.base {
		panic(fmt.Sprintf("program: trace window rewind too deep (idx %d < base %d)", idx, w.base))
	}
	return &w.buf[idx%uint64(len(w.buf))]
}
