package target

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// regs presets (or expects) register values.
type regs map[Reg]uint64

func rr(op Opcode, d, s Reg) Instr         { return Instr{Op: op, Dst: d, Src: s} }
func ri(op Opcode, d Reg, imm int64) Instr { return Instr{Op: op, Dst: d, Imm: imm} }
func cc(op Opcode, c Cond, d, s Reg) Instr { return Instr{Op: op, Cond: c, Dst: d, Src: s} }
func jmp(op Opcode, c Cond, blk int) Instr { return Instr{Op: op, Cond: c, Target: blk} }
func call(fn int) Instr                    { return Instr{Op: CALL, Target: fn} }
func load(d, base Reg, off int64, size uint8) Instr {
	return Instr{Op: LOAD, Dst: d, Src: base, Imm: off, Size: size}
}
func store(base Reg, off int64, size uint8, s Reg) Instr {
	return Instr{Op: STORE, Dst: base, Src: s, Imm: off, Size: size}
}

var ret = Instr{Op: RET}

func u(v int64) uint64 { return uint64(v) }

// fn builds a function named name from blocks.
func fn(name string, frame uint32, blocks ...[]Instr) *MFunc {
	return &MFunc{Name: name, FrameSize: frame, Blocks: blocks}
}

// runProg runs function 0 of funcs on a fresh machine with the
// registers in set preset.
func runProg(set regs, maxInstrs uint64, funcs ...*MFunc) (*Machine, uint64, error) {
	m := NewMachine(&Program{Funcs: funcs})
	for r, v := range set {
		m.Regs[r] = v
	}
	m.MaxInstrs = maxInstrs
	v, err := m.Run(0)
	return m, v, err
}

// checkRegs reports every register in want that m does not hold.
func checkRegs(t *testing.T, m *Machine, want regs) {
	t.Helper()
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", r, m.Regs[r], v)
		}
	}
}

// checkCounts reports counters that differ from the wanted ones.
func checkCounts(t *testing.T, m *Machine, instrs, cycles uint64) {
	t.Helper()
	if m.Instrs != instrs || m.Cycles != cycles {
		t.Errorf("Instrs/Cycles = %d/%d, want %d/%d", m.Instrs, m.Cycles, instrs, cycles)
	}
}

// Every straight-line opcode, one block ending in RET (2 cycles).
func TestOpcodes(t *testing.T) {
	const hi = 0x1122334485a6c7e8
	cases := []struct {
		name   string
		set    regs
		code   []Instr
		want   regs
		cycles uint64 // without the RET
	}{
		{"mov ri", nil, []Instr{ri(MOVri, R1, -5)}, regs{R1: u(-5)}, 1},
		{"mov ri wide", nil, []Instr{ri(MOVri, R1, hi)}, regs{R1: hi}, 1},
		{"mov rr", regs{R2: 7}, []Instr{rr(MOVrr, R1, R2)}, regs{R1: 7, R2: 7}, 1},
		{"mov from sp", nil, []Instr{rr(MOVrr, R1, SP)}, regs{R1: MemSize}, 1},
		{"add rr", regs{R1: 5, R2: 7}, []Instr{rr(ADDrr, R1, R2)}, regs{R1: 12}, 1},
		{"add rr wraps", regs{R1: math.MaxUint64, R2: 2}, []Instr{rr(ADDrr, R1, R2)}, regs{R1: 1}, 1},
		{"sub rr", regs{R1: 5, R2: 7}, []Instr{rr(SUBrr, R1, R2)}, regs{R1: u(-2)}, 1},
		{"imul rr", regs{R1: 6, R2: u(-7)}, []Instr{rr(IMULrr, R1, R2)}, regs{R1: u(-42)}, 3},
		{"and rr", regs{R1: 0b1100, R2: 0b1010}, []Instr{rr(ANDrr, R1, R2)}, regs{R1: 0b1000}, 1},
		{"or rr", regs{R1: 0b1100, R2: 0b1010}, []Instr{rr(ORrr, R1, R2)}, regs{R1: 0b1110}, 1},
		{"xor rr", regs{R1: 0b1100, R2: 0b1010}, []Instr{rr(XORrr, R1, R2)}, regs{R1: 0b0110}, 1},
		{"shl rr masks", regs{R1: 1, R2: 65}, []Instr{rr(SHLrr, R1, R2)}, regs{R1: 2}, 1},
		{"shr rr", regs{R1: 0x80, R2: 3}, []Instr{rr(SHRrr, R1, R2)}, regs{R1: 0x10}, 1},
		{"shr rr logical", regs{R1: u(-1), R2: 60}, []Instr{rr(SHRrr, R1, R2)}, regs{R1: 0xf}, 1},
		{"sar rr", regs{R1: u(-16), R2: 2}, []Instr{rr(SARrr, R1, R2)}, regs{R1: u(-4)}, 1},
		{"sar rr masks", regs{R1: u(-16), R2: 66}, []Instr{rr(SARrr, R1, R2)}, regs{R1: u(-4)}, 1},
		{"udiv rr", regs{R1: u(-1), R2: 2}, []Instr{rr(UDIVrr, R1, R2)}, regs{R1: math.MaxInt64}, 20},
		{"sdiv rr truncates", regs{R1: u(-7), R2: 2}, []Instr{rr(SDIVrr, R1, R2)}, regs{R1: u(-3)}, 20},
		{"urem rr", regs{R1: 17, R2: 5}, []Instr{rr(UREMrr, R1, R2)}, regs{R1: 2}, 20},
		{"srem rr", regs{R1: u(-7), R2: 2}, []Instr{rr(SREMrr, R1, R2)}, regs{R1: u(-1)}, 20},
		{"sdiv min by 1", regs{R1: 1 << 63, R2: 1}, []Instr{rr(SDIVrr, R1, R2)}, regs{R1: 1 << 63}, 20},
		{"add ri", regs{R1: 5}, []Instr{ri(ADDri, R1, -6)}, regs{R1: u(-1)}, 1},
		{"and ri", regs{R1: 0xff}, []Instr{ri(ANDri, R1, 0x0f)}, regs{R1: 0x0f}, 1},
		{"or ri", regs{R1: 0xf0}, []Instr{ri(ORri, R1, 0x0f)}, regs{R1: 0xff}, 1},
		{"xor ri", regs{R1: 0xff}, []Instr{ri(XORri, R1, 0x0f)}, regs{R1: 0xf0}, 1},
		{"shl ri masks", regs{R1: 3}, []Instr{ri(SHLri, R1, 66)}, regs{R1: 12}, 1},
		{"shr ri", regs{R1: u(-1)}, []Instr{ri(SHRri, R1, 60)}, regs{R1: 0xf}, 1},
		{"sar ri", regs{R1: u(-256)}, []Instr{ri(SARri, R1, 4)}, regs{R1: u(-16)}, 1},
		{"cmp rr + set", regs{R1: 4, R2: 4, R3: 7},
			[]Instr{rr(CMPrr, R1, R2), cc(SETcc, CondEQ, R3, 0)}, regs{R3: 1}, 2},
		{"cmp ri + set", regs{R1: 5, R3: 7},
			[]Instr{ri(CMPri, R1, 5), cc(SETcc, CondNE, R3, 0)}, regs{R3: 0}, 2},
		{"cmp + cmov", regs{R1: 1, R2: 2, R3: 7},
			[]Instr{rr(CMPrr, R1, R2), cc(CMOVcc, CondULT, R3, R2)}, regs{R3: 2}, 2},
		{"lea", regs{R2: 100}, []Instr{{Op: LEA, Dst: R1, Src: R2, Imm: 8}}, regs{R1: 108}, 1},
		{"lea scaled", regs{R2: 100, R3: 3},
			[]Instr{{Op: LEA, Dst: R1, Src: R2, Src2: R3, Scale: 4, Imm: -4}}, regs{R1: 108}, 1},
		{"lea unscaled ignores src2", regs{R2: 100, R3: 3},
			[]Instr{{Op: LEA, Dst: R1, Src: R2, Src2: R3, Imm: 1}}, regs{R1: 101}, 1},
		{"lea high base", regs{R8: 100}, []Instr{{Op: LEA, Dst: R1, Src: R8, Imm: 4}}, regs{R1: 104}, 3},
		{"lea r13 base", regs{R13: 100}, []Instr{{Op: LEA, Dst: R1, Src: R13, Imm: 4}}, regs{R1: 104}, 3},
		{"lea high index", regs{R2: 100, R11: 2},
			[]Instr{{Op: LEA, Dst: R1, Src: R2, Src2: R11, Scale: 8}}, regs{R1: 116}, 3},
		{"lea high unscaled index", regs{R2: 100, R11: 2},
			[]Instr{{Op: LEA, Dst: R1, Src: R2, Src2: R11}}, regs{R1: 100}, 1},
		{"lea fp is not high", nil, []Instr{{Op: LEA, Dst: R1, Src: FP, Imm: -8}}, regs{R1: MemSize - 8}, 1},
		{"push pop", regs{R1: 42},
			[]Instr{{Op: PUSH, Src: R1}, rr(MOVrr, R3, SP), {Op: POP, Dst: R2}},
			regs{R2: 42, R3: MemSize - 8, SP: MemSize}, 5},
		{"ur reads zero", regs{R1: 9}, []Instr{rr(MOVrr, R1, UR)}, regs{R1: 0}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code := append(append([]Instr(nil), c.code...), ret)
			m, _, err := runProg(c.set, 0, fn("f", 0, code))
			if err != nil {
				t.Fatal(err)
			}
			checkRegs(t, m, c.want)
			checkCounts(t, m, uint64(len(code)), c.cycles+2)
		})
	}
}

// MOVSX and MOVZX at every sub-register width.
func TestExtensions(t *testing.T) {
	const neg, pos = 0x112233448596a7b8, 0x0102030405067f7f
	cases := []struct {
		src    uint64
		size   uint8
		sx, zx uint64
	}{
		{neg, 1, 0xffffffffffffffb8, 0xb8},
		{neg, 2, 0xffffffffffffa7b8, 0xa7b8},
		{neg, 4, 0xffffffff8596a7b8, 0x8596a7b8},
		{pos, 1, 0x7f, 0x7f},
		{pos, 2, 0x7f7f, 0x7f7f},
		{pos, 4, 0x05067f7f, 0x05067f7f},
		// Widths the backend never emits: all eight bytes keep the
		// value, none yields zero, and past eight MOVSX's shift drops
		// every bit while MOVZX keeps them all.
		{neg, 8, neg, neg},
		{neg, 0, 0, 0},
		{neg, 9, 0, neg},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%#x:%d", c.src, c.size), func(t *testing.T) {
			code := []Instr{
				{Op: MOVSX, Dst: R2, Src: R1, Size: c.size},
				{Op: MOVZX, Dst: R3, Src: R1, Size: c.size},
				ret,
			}
			m, _, err := runProg(regs{R1: c.src}, 0, fn("f", 0, code))
			if err != nil {
				t.Fatal(err)
			}
			checkRegs(t, m, regs{R1: c.src, R2: c.sx, R3: c.zx})
			checkCounts(t, m, 3, 4)
		})
	}
}

// STORE writes the low size bytes little-endian; LOAD zero-extends.
func TestLoadStoreSizes(t *testing.T) {
	const v uint64 = 0x1122334455667788
	for _, c := range []struct {
		size uint8
		want uint64
	}{{1, 0x88}, {2, 0x7788}, {4, 0x55667788}, {8, v}} {
		t.Run(fmt.Sprint(c.size), func(t *testing.T) {
			code := []Instr{
				store(R1, 16, c.size, R2),
				load(R3, R1, 16, 8),
				load(R4, R1, 16, c.size),
				ret,
			}
			m, _, err := runProg(regs{R1: GlobalBase, R2: v}, 0, fn("f", 0, code))
			if err != nil {
				t.Fatal(err)
			}
			checkRegs(t, m, regs{R3: c.want, R4: c.want})
			checkCounts(t, m, 4, 11)
			for i := uint64(0); i < 8; i++ {
				want := byte(0)
				if i < uint64(c.size) {
					want = byte(v >> (8 * i))
				}
				if got := m.Mem[GlobalBase+16+i]; got != want {
					t.Errorf("Mem[+%d] = %#x, want %#x", i, got, want)
				}
			}
		})
	}
}

// The first and last byte of mapped memory are both reachable.
func TestMemoryEdges(t *testing.T) {
	code := []Instr{
		store(R1, 0, 1, R3),
		store(R2, -8, 8, R3),
		load(R4, R1, 0, 1),
		load(R5, R2, -4, 4),
		ret,
	}
	m, _, err := runProg(regs{R1: GlobalBase, R2: MemSize, R3: 0xa1b2c3d4e5f60718}, 0, fn("f", 0, code))
	if err != nil {
		t.Fatal(err)
	}
	checkRegs(t, m, regs{R4: 0x18, R5: 0xa1b2c3d4})
	checkCounts(t, m, 5, 14)
}

// condHolds is the reference truth table for the condition codes.
func condHolds(c Cond, a, b uint64) bool {
	sa, sb := int64(a), int64(b)
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondUGT:
		return a > b
	case CondUGE:
		return a >= b
	case CondULT:
		return a < b
	case CondULE:
		return a <= b
	case CondSGT:
		return sa > sb
	case CondSGE:
		return sa >= sb
	case CondSLT:
		return sa < sb
	case CondSLE:
		return sa <= sb
	}
	panic("unknown condition")
}

// Every condition under SETcc, CMOVcc and Jcc, on operand pairs that
// separate the signed from the unsigned orders.
func TestConditions(t *testing.T) {
	pairs := [][2]uint64{
		{1, 1}, {1, 2}, {2, 1}, {u(-1), 1}, {1, u(-1)},
		{1 << 63, math.MaxInt64}, {math.MaxInt64, 1 << 63}, {u(-1), u(-1)},
	}
	for c := CondEQ; c <= CondSLE; c++ {
		for _, p := range pairs {
			a, b := p[0], p[1]
			want := condHolds(c, a, b)
			name := fmt.Sprintf("%s/%#x,%#x", c, a, b)
			set := regs{R1: a, R2: b, R3: 7, R4: 9, R5: 7}
			t.Run(name, func(t *testing.T) {
				code := []Instr{
					rr(CMPrr, R1, R2),
					cc(SETcc, c, R3, 0),
					cc(CMOVcc, c, R5, R4),
					jmp(Jcc, c, 1),
					ri(MOVri, R6, 10),
					ret,
				}
				taken := []Instr{ri(MOVri, R6, 20), ret}
				m, _, err := runProg(set, 0, fn("f", 0, code, taken))
				if err != nil {
					t.Fatal(err)
				}
				w := regs{R3: 0, R5: 7, R6: 10}
				if want {
					w = regs{R3: 1, R5: 9, R6: 20}
				}
				checkRegs(t, m, w)
				checkCounts(t, m, 6, 7)
			})
			if int64(b) == int64(int32(b)) {
				t.Run(name+"/imm", func(t *testing.T) {
					code := []Instr{ri(CMPri, R1, int64(b)), cc(SETcc, c, R3, 0), ret}
					m, _, err := runProg(set, 0, fn("f", 0, code))
					if err != nil {
						t.Fatal(err)
					}
					w := uint64(0)
					if want {
						w = 1
					}
					checkRegs(t, m, regs{R3: w})
				})
			}
		}
	}
}

// JMP goes to the head of its target block; CALL builds a frame of
// the callee's size and RET unwinds it and restores FP.
func TestControlFlow(t *testing.T) {
	t.Run("jmp", func(t *testing.T) {
		m, _, err := runProg(nil, 0, fn("f", 0,
			[]Instr{jmp(JMP, 0, 2)},
			[]Instr{ri(MOVri, R1, 1), ret},
			[]Instr{ri(MOVri, R2, 2), ret}))
		if err != nil {
			t.Fatal(err)
		}
		checkRegs(t, m, regs{R1: 0, R2: 2})
		checkCounts(t, m, 3, 4)
	})
	t.Run("backward jmp loop", func(t *testing.T) {
		m, _, err := runProg(regs{R1: 3}, 0, fn("f", 0,
			[]Instr{ri(MOVri, R0, 0)},
			[]Instr{ri(ADDri, R0, 5), ri(ADDri, R1, -1), ri(CMPri, R1, 0), jmp(Jcc, CondNE, 1), ret}))
		if err == nil || !strings.Contains(err.Error(), "fell off the end of block 0") {
			t.Fatalf("block 0 has no terminator: got %v", err)
		}
		checkCounts(t, m, 1, 1)
		m, v, err := runProg(regs{R1: 3}, 0, fn("f", 0,
			[]Instr{ri(MOVri, R0, 0), jmp(JMP, 0, 1)},
			[]Instr{ri(ADDri, R0, 5), ri(ADDri, R1, -1), ri(CMPri, R1, 0), jmp(Jcc, CondNE, 1), ret}))
		if err != nil {
			t.Fatal(err)
		}
		if v != 15 {
			t.Errorf("returned %d, want 15", v)
		}
		checkCounts(t, m, 2+3*4+1, 2+3*4+2)
	})
	t.Run("call ret", func(t *testing.T) {
		caller := fn("f", 8,
			[]Instr{ri(MOVri, R1, 3), rr(MOVrr, R5, FP), call(1), rr(ADDrr, R0, R1), rr(MOVrr, R6, FP), rr(MOVrr, R7, SP), ret})
		callee := fn("g", 16, []Instr{ri(MOVri, R0, 4), rr(MOVrr, R2, FP), ret})
		m, v, err := runProg(nil, 0, caller, callee)
		if err != nil {
			t.Fatal(err)
		}
		if v != 7 {
			t.Errorf("returned %d, want 7", v)
		}
		checkRegs(t, m, regs{R2: MemSize - 24, R5: MemSize - 8, R6: MemSize - 8, R7: MemSize - 8, SP: MemSize, FP: MemSize - 8})
		checkCounts(t, m, 10, 1+1+2+1+1+2+1+1+1+2)
	})
	t.Run("recursion", func(t *testing.T) {
		// g(n) = n == 0 ? 0 : g(n-1) + 2, passing n in R1.
		g := fn("g", 0,
			[]Instr{ri(CMPri, R1, 0), jmp(Jcc, CondEQ, 1), ri(ADDri, R1, -1), call(0), ri(ADDri, R0, 2), ret},
			[]Instr{ri(MOVri, R0, 0), ret})
		m, v, err := runProg(regs{R1: 100}, 0, g)
		if err != nil {
			t.Fatal(err)
		}
		if v != 200 {
			t.Errorf("returned %d, want 200", v)
		}
		checkCounts(t, m, 100*6+4, 100*(1+1+1+2+1+2)+1+1+1+2)
	})
	t.Run("run a callee directly", func(t *testing.T) {
		m := NewMachine(&Program{Funcs: []*MFunc{
			fn("f", 0, []Instr{call(1), ret}),
			fn("g", 0, []Instr{ri(MOVri, R0, 11), ret}),
		}})
		if v, err := m.Run(1); err != nil || v != 11 {
			t.Fatalf("Run(1) = %d, %v; want 11", v, err)
		}
		checkCounts(t, m, 2, 3)
	})
}

// Every fault returns its error with the counters as they stood when
// it fired: a faulting instruction is counted, a trap (falling off a
// block, a missing block) is not.
func TestFaults(t *testing.T) {
	cases := []struct {
		name           string
		set            regs
		funcs          []*MFunc
		err            string
		instrs, cycles uint64
	}{
		{"udiv by zero", regs{R1: 5}, []*MFunc{fn("f", 0, []Instr{ri(MOVri, R2, 0), rr(UDIVrr, R1, R2), ret})},
			"vx64: #DE division by zero in f", 2, 21},
		{"urem by zero", regs{R1: 5}, []*MFunc{fn("f", 0, []Instr{rr(UREMrr, R1, R2), ret})},
			"vx64: #DE division by zero in f", 1, 20},
		{"sdiv by zero", regs{R1: 5}, []*MFunc{fn("f", 0, []Instr{rr(SDIVrr, R1, R2), ret})},
			"vx64: #DE division by zero in f", 1, 20},
		{"srem by zero", regs{R1: 5}, []*MFunc{fn("f", 0, []Instr{rr(SREMrr, R1, R2), ret})},
			"vx64: #DE division by zero in f", 1, 20},
		{"sdiv overflow", regs{R1: 1 << 63, R2: u(-1)}, []*MFunc{fn("f", 0, []Instr{rr(SDIVrr, R1, R2), ret})},
			"vx64: #DE division overflow in f", 1, 20},
		{"srem overflow", regs{R1: 1 << 63, R2: u(-1)}, []*MFunc{fn("f", 0, []Instr{rr(SREMrr, R1, R2), ret})},
			"vx64: #DE division overflow in f", 1, 20},
		{"load null", nil, []*MFunc{fn("f", 0, []Instr{load(R1, R2, 0, 8), ret})},
			"vx64: load fault at 0x0", 1, 3},
		{"load through ur", nil, []*MFunc{fn("f", 0, []Instr{load(R1, UR, 16, 4), ret})},
			"vx64: load fault at 0x10", 1, 3},
		{"load below globals", regs{R2: GlobalBase}, []*MFunc{fn("f", 0, []Instr{load(R1, R2, -1, 1), ret})},
			"vx64: load fault at 0xfff", 1, 3},
		{"load across the top", regs{R2: MemSize}, []*MFunc{fn("f", 0, []Instr{load(R1, R2, -4, 8), ret})},
			"vx64: load fault at 0xffffc", 1, 3},
		{"load sized across the top", regs{R2: MemSize}, []*MFunc{fn("f", 0, []Instr{load(R1, R2, -3, 4), ret})},
			"vx64: load fault at 0xffffd", 1, 3},
		{"store null", nil, []*MFunc{fn("f", 0, []Instr{ri(MOVri, R1, 1), store(R2, 8, 2, R1), ret})},
			"vx64: store fault at 0x8", 2, 4},
		{"store across the top", regs{R2: MemSize}, []*MFunc{fn("f", 0, []Instr{store(R2, -7, 8, R1), ret})},
			"vx64: store fault at 0xffff9", 1, 3},
		{"push below globals", regs{SP: GlobalBase + 4}, []*MFunc{fn("f", 0, []Instr{{Op: PUSH, Src: R1}, ret})},
			"vx64: store fault at 0xffc", 1, 2},
		{"pop across the top", regs{SP: MemSize - 4}, []*MFunc{fn("f", 0, []Instr{{Op: POP, Dst: R1}, ret})},
			"vx64: load fault at 0xffffc", 1, 2},
		{"fault in callee names it", regs{R1: 5}, []*MFunc{
			fn("f", 0, []Instr{call(1), ret}),
			fn("g", 0, []Instr{ri(MOVri, R2, 0), rr(UDIVrr, R1, R2), ret})},
			"vx64: #DE division by zero in g", 3, 23},
		{"fell off a block", nil, []*MFunc{fn("f", 0, []Instr{ri(MOVri, R1, 1)})},
			"vx64: f: fell off the end of block 0", 1, 1},
		{"fell off after an untaken branch", nil, []*MFunc{fn("f", 0, []Instr{rr(CMPrr, R1, R1), jmp(Jcc, CondNE, 0)})},
			"vx64: f: fell off the end of block 0", 2, 2},
		{"fell off after a call", nil, []*MFunc{
			fn("f", 0, []Instr{call(1)}),
			fn("g", 0, []Instr{ret})},
			"vx64: f: fell off the end of block 0", 2, 4},
		{"branch to an empty block", nil, []*MFunc{fn("f", 0, []Instr{jmp(JMP, 0, 1)}, nil)},
			"vx64: f: fell off the end of block 1", 1, 1},
		{"branch to a missing block", nil, []*MFunc{fn("f", 0, []Instr{jmp(JMP, 0, 3)})},
			"vx64: f: branch to missing block 3", 1, 1},
		{"taken jcc to a missing block", nil, []*MFunc{fn("f", 0, []Instr{rr(CMPrr, R1, R1), jmp(Jcc, CondEQ, 9), ret})},
			"vx64: f: branch to missing block 9", 2, 2},
		{"untaken jcc to a missing block", nil, []*MFunc{fn("f", 0, []Instr{rr(CMPrr, R1, R1), jmp(Jcc, CondNE, 9), ret})},
			"", 3, 4},
		{"call to a missing function", nil, []*MFunc{fn("f", 0, []Instr{ri(MOVri, R1, 1), call(4), ret})},
			"vx64: call to missing function 4", 2, 3},
		{"run an empty function", nil, []*MFunc{fn("f", 0)},
			"vx64: f: branch to missing block 0", 0, 0},
		{"call an empty function", nil, []*MFunc{fn("f", 0, []Instr{call(1), ret}), fn("g", 0)},
			"vx64: g: branch to missing block 0", 1, 2},
		{"invalid opcode", nil, []*MFunc{fn("f", 0, []Instr{{Op: OpInvalid}, ret})},
			"vx64: cannot execute invalid ?", 1, 1},
		{"unknown opcode", nil, []*MFunc{fn("f", 0, []Instr{ri(MOVri, R1, 1), {Op: numOpcodes + 3}, ret})},
			fmt.Sprintf("vx64: cannot execute op%d ?", numOpcodes+3), 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _, err := runProg(c.set, 0, c.funcs...)
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.err {
				t.Errorf("error %q, want %q", got, c.err)
			}
			checkCounts(t, m, c.instrs, c.cycles)
		})
	}
}

func TestRunMissingFunction(t *testing.T) {
	m := NewMachine(&Program{Funcs: []*MFunc{fn("f", 0, []Instr{ret})}})
	for _, fi := range []int{-1, 1, 7} {
		_, err := m.Run(fi)
		if want := fmt.Sprintf("vx64: no function %d", fi); err == nil || err.Error() != want {
			t.Errorf("Run(%d): %v, want %q", fi, err, want)
		}
	}
	checkCounts(t, m, 0, 0)
}

// The budget counts the instruction that exceeds it; the check runs
// against the machine's running total, so it spans Runs.
func TestBudget(t *testing.T) {
	loop := fn("f", 0, []Instr{ri(ADDri, R0, 1), jmp(JMP, 0, 0)})
	t.Run("exhausted", func(t *testing.T) {
		m, _, err := runProg(nil, 10, loop)
		if err == nil || err.Error() != "vx64: instruction budget exhausted in f" {
			t.Fatalf("error %v", err)
		}
		checkCounts(t, m, 11, 11)
		checkRegs(t, m, regs{R0: 5})
	})
	t.Run("costly instruction past the budget", func(t *testing.T) {
		m, _, err := runProg(regs{R2: 1}, 2, fn("f", 0, []Instr{ri(MOVri, R1, 1), ri(MOVri, R1, 2), rr(UDIVrr, R1, R2), ret}))
		if err == nil || err.Error() != "vx64: instruction budget exhausted in f" {
			t.Fatalf("error %v", err)
		}
		checkCounts(t, m, 3, 22)
		checkRegs(t, m, regs{R1: 2})
	})
	t.Run("call to a missing function past the budget", func(t *testing.T) {
		m, _, err := runProg(nil, 1, fn("f", 0, []Instr{ri(MOVri, R1, 1), call(9), ret}))
		if err == nil || err.Error() != "vx64: instruction budget exhausted in f" {
			t.Fatalf("error %v", err)
		}
		checkCounts(t, m, 2, 3)
	})
	t.Run("trap at the budget is a trap", func(t *testing.T) {
		m, _, err := runProg(nil, 1, fn("f", 0, []Instr{ri(MOVri, R1, 1)}))
		if err == nil || err.Error() != "vx64: f: fell off the end of block 0" {
			t.Fatalf("error %v", err)
		}
		checkCounts(t, m, 1, 1)
	})
	t.Run("exact budget returns", func(t *testing.T) {
		m, _, err := runProg(nil, 3, fn("f", 0, []Instr{ri(MOVri, R1, 1), ri(MOVri, R1, 2), ret}))
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, m, 3, 4)
	})
	t.Run("default spans runs", func(t *testing.T) {
		m := NewMachine(&Program{Funcs: []*MFunc{loop}})
		m.Instrs = DefaultMaxInstrs - 3
		_, err := m.Run(0)
		if err == nil || err.Error() != "vx64: instruction budget exhausted in f" {
			t.Fatalf("error %v", err)
		}
		if m.Instrs != DefaultMaxInstrs+1 || m.Cycles != 4 {
			t.Errorf("Instrs/Cycles = %d/%d, want %d/4", m.Instrs, m.Cycles, DefaultMaxInstrs+1)
		}
	})
}

// Two Runs on one machine: counters accumulate and registers, memory
// and flags carry over.
func TestRunTwice(t *testing.T) {
	m := NewMachine(&Program{Funcs: []*MFunc{
		fn("f", 16, []Instr{
			load(R1, R2, 0, 8), ri(ADDri, R1, 1), store(R2, 0, 8, R1),
			cc(SETcc, CondULT, R3, 0), rr(CMPrr, R1, R4), rr(MOVrr, R0, R1), ret,
		}),
	}})
	m.Regs[R2] = GlobalBase
	m.Regs[R4] = 2
	for i, want := range []struct {
		r0, r3 uint64
	}{{1, 0}, {2, 1}, {3, 0}} {
		v, err := m.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != want.r0 || m.Regs[R3] != want.r3 {
			t.Errorf("run %d: R0, R3 = %d, %d; want %d, %d", i+1, v, m.Regs[R3], want.r0, want.r3)
		}
		n := uint64(i + 1)
		checkCounts(t, m, 7*n, 12*n)
		checkRegs(t, m, regs{SP: MemSize, FP: MemSize - 16})
	}
}

// --- faults the simulator used to panic on ---

// Addresses near 2^64 used to wrap the bounds check and index far
// past the end of Mem.
func TestWildAddressFaults(t *testing.T) {
	wild := "vx64: load fault at 0xfffffffffffffffc"
	cases := []struct {
		name           string
		set            regs
		code           []Instr
		err            string
		instrs, cycles uint64
	}{
		{"load", nil, []Instr{ri(MOVri, R1, -4), load(R2, R1, 0, 8), ret}, wild, 2, 4},
		{"load sized", nil, []Instr{ri(MOVri, R1, -4), load(R2, R1, 0, 4), ret}, wild, 2, 4},
		{"load last byte", nil, []Instr{ri(MOVri, R1, -1), load(R2, R1, 0, 1), ret},
			"vx64: load fault at 0xffffffffffffffff", 2, 4},
		{"store", nil, []Instr{ri(MOVri, R1, -4), store(R1, 0, 8, R2), ret},
			"vx64: store fault at 0xfffffffffffffffc", 2, 4},
		{"store sized", nil, []Instr{ri(MOVri, R1, -2), store(R1, 0, 2, R2), ret},
			"vx64: store fault at 0xfffffffffffffffe", 2, 4},
		{"push", regs{SP: 4}, []Instr{{Op: PUSH, Src: R1}, ret},
			"vx64: store fault at 0xfffffffffffffffc", 1, 2},
		{"pop", regs{SP: u(-4)}, []Instr{{Op: POP, Dst: R1}, ret}, wild, 1, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _, err := runProg(c.set, 0, fn("f", 0, c.code))
			if err == nil || err.Error() != c.err {
				t.Errorf("error %v, want %q", err, c.err)
			}
			checkCounts(t, m, c.instrs, c.cycles)
		})
	}
}

// A register operand outside the register file faults when executed;
// a field the opcode does not read is not checked.
func TestBadRegisterFaults(t *testing.T) {
	bad := Reg(NumRegs)
	cases := []struct {
		in     Instr
		cycles uint64
	}{
		{rr(MOVrr, R1, bad), 1},
		{rr(MOVrr, bad, R1), 1},
		{ri(MOVri, bad+30, 1), 1},
		{rr(ADDrr, R1, bad), 1},
		{rr(CMPrr, bad, R1), 1},
		{cc(SETcc, CondEQ, bad, 0), 1},
		{cc(CMOVcc, CondEQ, R1, bad), 1},
		{Instr{Op: MOVSX, Dst: R1, Src: bad, Size: 1}, 1},
		{load(R1, bad, 0, 8), 3},
		{store(R1, 0, 4, bad), 3},
		{Instr{Op: PUSH, Src: bad}, 2},
		{Instr{Op: POP, Dst: bad}, 2},
		{Instr{Op: LEA, Dst: R1, Src: R2, Src2: bad, Scale: 2}, 1},
		{rr(UDIVrr, R1, bad), 20},
	}
	for _, c := range cases {
		t.Run(c.in.String(), func(t *testing.T) {
			m, _, err := runProg(regs{SP: MemSize - 64}, 0, fn("f", 0, []Instr{c.in, ret}))
			want := "vx64: f: register out of range in " + c.in.String()
			if err == nil || err.Error() != want {
				t.Errorf("error %v, want %q", err, want)
			}
			checkCounts(t, m, 1, c.cycles)
		})
	}
	m, _, err := runProg(regs{R2: 100}, 0, fn("f", 0, []Instr{
		{Op: LEA, Dst: R1, Src: R2, Src2: bad, Imm: 1}, {Op: JMP, Dst: bad, Src: bad, Target: 1}}, []Instr{ret}))
	if err != nil {
		t.Fatalf("unread register fields: %v", err)
	}
	checkRegs(t, m, regs{R1: 101})
}

// Calls that consume no simulated stack cannot overflow memory, so
// the call-depth bound is what stops runaway recursion.
func TestCallStackOverflow(t *testing.T) {
	// g(n) recurses n deep with a zero-size frame and no pushes.
	g := fn("g", 0,
		[]Instr{ri(CMPri, R1, 0), jmp(Jcc, CondEQ, 1), ri(ADDri, R1, -1), call(0), ret},
		[]Instr{ret})
	m, _, err := runProg(regs{R1: MaxCallDepth}, 0, g)
	if err != nil {
		t.Fatalf("depth %d: %v", MaxCallDepth, err)
	}
	checkCounts(t, m, 5*MaxCallDepth+3, 7*MaxCallDepth+4)

	m, _, err = runProg(regs{R1: MaxCallDepth + 1}, 0, g)
	if err == nil || err.Error() != "vx64: call stack overflow in g" {
		t.Fatalf("depth %d: error %v", MaxCallDepth+1, err)
	}
	checkCounts(t, m, 4*(MaxCallDepth+1), 5*(MaxCallDepth+1))

	// f() { return f(); }
	m, _, err = runProg(nil, 0, fn("f", 0, []Instr{call(0), ret}))
	if err == nil || err.Error() != "vx64: call stack overflow in f" {
		t.Fatalf("unbounded recursion: error %v", err)
	}
	checkCounts(t, m, MaxCallDepth+1, 2*(MaxCallDepth+1))
}
