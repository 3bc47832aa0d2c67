package target

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// MemSize is the size of the simulated flat memory. The stack starts
// at the top and grows down; globals are loaded at GlobalBase.
const MemSize = 1 << 20

// DefaultMaxInstrs is the instruction budget when MaxInstrs is 0, so
// non-terminating programs fail instead of hanging the harness.
const DefaultMaxInstrs = 200_000_000

// MaxCallDepth bounds how many calls may be active at once. Frames
// live host-side, so without a bound a recursion that consumes no
// simulated stack grows host memory with every call:
// `int f() { return f(); }` compiles to a frame-0 CALL with no
// PUSH, and its frames took the process to 7.7 GB, where it was killed
// before the budget ran out. Every call that passes an argument or
// has a frame moves SP down by at least 8 bytes, so a program that
// uses its stack runs out of the MemSize bytes of memory before it
// reaches MemSize/8 active calls; only calls that consume no stack can
// nest deeper, and those are the runaway recursions the bound stops.
// At that depth the host frames take 2 MiB.
const MaxCallDepth = MemSize / 8

// Machine is the VX64 simulator: a register file, flat memory, and the
// cycle model described in DESIGN.md (including the LEA high-register
// penalty).
type Machine struct {
	Regs [NumRegs]uint64
	Mem  []byte

	// Cycles and Instrs accumulate over Run.
	Cycles uint64
	Instrs uint64

	// MaxInstrs bounds Instrs (0 = DefaultMaxInstrs): a Run fails at
	// the instruction that takes the count past it. The count includes
	// earlier Runs on the same machine.
	MaxInstrs uint64

	prog *Program
	// dec is prog decoded for the simulator loop, built by the first
	// Run.
	dec *decoded
	// frames is the host-side call stack, kept to reuse its capacity.
	frames []frame

	// flags holds the operands of the last CMP; conditions are
	// evaluated against them on demand.
	flagA, flagB uint64
}

// NewMachine creates a machine with the program's globals loaded and
// SP/FP at the top of memory. The pinned undef register UR reads as an
// arbitrary but fixed value — zero, which also makes a load through UR
// a null dereference (the backend lowers unreachable that way).
func NewMachine(p *Program) *Machine {
	m := &Machine{Mem: make([]byte, MemSize), prog: p}
	addrs := LayoutGlobals(p.Globals)
	for i, g := range p.Globals {
		copy(m.Mem[addrs[i]:], g.Init)
	}
	m.Regs[SP] = MemSize
	m.Regs[FP] = MemSize
	return m
}

// cost is the cycle model: ALU 1, multiply 3, divide 20, memory 3,
// push/pop 2, taken control flow 2, and the Queens quirk — LEA with a
// high register (R8+) in its address takes 3 cycles instead of 1.
func cost(in Instr) uint64 {
	switch in.Op {
	case IMULrr:
		return 3
	case UDIVrr, SDIVrr, UREMrr, SREMrr:
		return 20
	case LOAD, STORE:
		return 3
	case PUSH, POP:
		return 2
	case CALL, RET:
		return 2
	case LEA:
		if (in.Src >= R8 && in.Src <= R13) || (in.Scale != 0 && in.Src2 >= R8 && in.Src2 <= R13) {
			return 3
		}
		return 1
	}
	return 1
}

// The decoded form. The first Run flattens every function into one
// array of dinstrs: its blocks in order, each followed by an opTrap
// entry for falling off its end, then an opTrap entry for each branch
// to a block that does not exist (a function with no blocks is just
// the trap for its missing block 0). Branch targets are absolute pcs
// and every entry carries its cycle cost, so the loop never looks at a
// block index. An error that stops the run before an instruction
// executes (falling off a block, a missing block) is an opTrap and is
// not counted; an instruction that cannot execute (an unknown opcode,
// a register outside the file, a call to a missing function) becomes
// an opFault, counted with its own cost before it reports. Both keep
// Instrs and Cycles exactly what VX64 defines at every exit.

// Decoded-only opcodes, numbered after the VX64 ones.
const (
	// opLOAD8 and opSTORE8 are LOAD and STORE of size 8.
	opLOAD8 Opcode = numOpcodes + iota
	opSTORE8
	// opTrap ends the run without being executed: it is not counted
	// in Instrs or Cycles. imm indexes decoded.traps.
	opTrap
	// opFault is an instruction that faults when executed: it is
	// counted with its own cost first. imm indexes decoded.traps.
	opFault
)

// dinstr is one decoded instruction.
type dinstr struct {
	// imm is the immediate or displacement; for JMP and Jcc the
	// target pc, for CALL the callee's function index, for RET its
	// function's frame size, for MOVSX a shift, for MOVZX a mask, for
	// opTrap and opFault a trap index.
	imm            int64
	op             Opcode
	dst, src, src2 Reg
	scale, size    uint8
	cond           Cond
	cost           uint8
}

// trapKind says which error an opTrap or opFault entry reports.
type trapKind uint8

const (
	trapFellOff      trapKind = iota // arg: the block
	trapMissingBlock                 // arg: the branch target
	trapMissingFunc                  // arg: the call target
	trapBadOp                        // in: the instruction
	trapBadReg                       // in: the instruction
)

type trap struct {
	kind trapKind
	arg  int
	in   Instr
}

// dfunc is a function's place in the decoded array.
type dfunc struct {
	entry int
	frame uint64
}

type decoded struct {
	code  []dinstr
	funcs []dfunc
	traps []trap
}

// regsOK reports whether every register field in reads or writes
// names a register of the file. Fields the opcode ignores are not
// checked.
func regsOK(in Instr) bool {
	ok := func(r Reg) bool { return int(r) < NumRegs }
	switch in.Op {
	case JMP, Jcc, CALL, RET:
		return true
	case MOVri, ADDri, ANDri, ORri, XORri, SHLri, SHRri, SARri, CMPri, SETcc, POP:
		return ok(in.Dst)
	case PUSH:
		return ok(in.Src)
	case LEA:
		return ok(in.Dst) && ok(in.Src) && (in.Scale == 0 || ok(in.Src2))
	}
	return ok(in.Dst) && ok(in.Src)
}

func decode(p *Program) *decoded {
	d := &decoded{funcs: make([]dfunc, len(p.Funcs))}
	addTrap := func(t trap) int64 {
		d.traps = append(d.traps, t)
		return int64(len(d.traps) - 1)
	}
	var blockPC []int
	for fi, f := range p.Funcs {
		d.funcs[fi] = dfunc{entry: len(d.code), frame: uint64(f.FrameSize)}
		// Block b starts at blockPC[b]; its fell-off trap follows it.
		blockPC = blockPC[:0]
		pc := len(d.code)
		for _, b := range f.Blocks {
			blockPC = append(blockPC, pc)
			pc += len(b) + 1
		}
		var missing []struct{ pc, target int } // branches to missing blocks
		if len(f.Blocks) == 0 {
			d.code = append(d.code, dinstr{op: opTrap, imm: addTrap(trap{kind: trapMissingBlock, arg: 0})})
		}
		for bi, b := range f.Blocks {
			for _, in := range b {
				di := dinstr{
					imm: in.Imm, op: in.Op, dst: in.Dst, src: in.Src, src2: in.Src2,
					scale: in.Scale, size: in.Size, cond: in.Cond, cost: uint8(cost(in)),
				}
				switch {
				case in.Op == OpInvalid || in.Op >= numOpcodes:
					di.op, di.imm = opFault, addTrap(trap{kind: trapBadOp, in: in})
				case !regsOK(in):
					di.op, di.imm = opFault, addTrap(trap{kind: trapBadReg, in: in})
				case in.Op == JMP || in.Op == Jcc:
					if in.Target >= 0 && in.Target < len(f.Blocks) {
						di.imm = int64(blockPC[in.Target])
					} else {
						missing = append(missing, struct{ pc, target int }{len(d.code), in.Target})
					}
				case in.Op == CALL:
					if in.Target >= 0 && in.Target < len(p.Funcs) {
						di.imm = int64(in.Target)
					} else {
						di.op, di.imm = opFault, addTrap(trap{kind: trapMissingFunc, arg: in.Target})
					}
				case in.Op == MOVSX:
					// imm is the shift that brings the low Size bytes to
					// the top of the register and back; extending no
					// bytes (or more than eight, which the shift drops)
					// yields zero.
					if in.Size >= 1 && in.Size <= 8 {
						di.imm = int64(64 - 8*int(in.Size))
					} else {
						di.op, di.imm = MOVri, 0
					}
				case in.Op == MOVZX:
					// imm is the mask of the low Size bytes.
					di.imm = -1
					if in.Size < 8 {
						di.imm = 1<<(8*int(in.Size)) - 1
					}
				case in.Op == RET:
					di.imm = int64(f.FrameSize)
				case in.Op == LOAD && in.Size == 8:
					di.op = opLOAD8
				case in.Op == STORE && in.Size == 8:
					di.op = opSTORE8
				}
				d.code = append(d.code, di)
			}
			d.code = append(d.code, dinstr{op: opTrap, imm: addTrap(trap{kind: trapFellOff, arg: bi})})
		}
		for _, b := range missing {
			d.code[b.pc].imm = int64(len(d.code))
			d.code = append(d.code, dinstr{op: opTrap, imm: addTrap(trap{kind: trapMissingBlock, arg: b.target})})
		}
	}
	return d
}

// funcAt returns the index of the function whose code holds pc.
func (d *decoded) funcAt(pc int) int {
	return sort.Search(len(d.funcs), func(i int) bool { return d.funcs[i].entry > pc }) - 1
}

// frame is one activation record; frames live host-side, only
// arguments and spills live in simulated memory.
type frame struct {
	ret int // pc to resume at
	fp  uint64
}

// exit is how the simulator loop ended.
type exit uint8

const (
	exitRet  exit = iota
	exitTrap      // at an opTrap or opFault entry; its trap names the error
	exitBudget
	exitDivZero
	exitDivOverflow
	exitLoadFault
	exitStoreFault
	exitCallDepth
)

// Run executes function fi until its outermost RET and returns R0.
// It may be called repeatedly; Cycles and Instrs accumulate.
func (m *Machine) Run(fi int) (uint64, error) {
	if fi < 0 || fi >= len(m.prog.Funcs) {
		return 0, fmt.Errorf("vx64: no function %d", fi)
	}
	if m.dec == nil {
		m.dec = decode(m.prog)
	}
	d := m.dec
	// Prologue: allocate the frame, point FP at its base.
	m.Regs[SP] -= d.funcs[fi].frame
	m.Regs[FP] = m.Regs[SP]

	ex, pc, addr := m.exec(d.funcs[fi].entry)
	name := func() string { return m.prog.Funcs[d.funcAt(pc)].Name }
	switch ex {
	case exitRet:
		return m.Regs[R0], nil
	case exitBudget:
		return 0, fmt.Errorf("vx64: instruction budget exhausted in %s", name())
	case exitDivZero:
		return 0, fmt.Errorf("vx64: #DE division by zero in %s", name())
	case exitDivOverflow:
		return 0, fmt.Errorf("vx64: #DE division overflow in %s", name())
	case exitLoadFault:
		return 0, fmt.Errorf("vx64: load fault at %#x", addr)
	case exitStoreFault:
		return 0, fmt.Errorf("vx64: store fault at %#x", addr)
	case exitCallDepth:
		return 0, fmt.Errorf("vx64: call stack overflow in %s", name())
	}
	t := d.traps[d.code[pc].imm]
	switch t.kind {
	case trapFellOff:
		return 0, fmt.Errorf("vx64: %s: fell off the end of block %d", name(), t.arg)
	case trapMissingBlock:
		return 0, fmt.Errorf("vx64: %s: branch to missing block %d", name(), t.arg)
	case trapMissingFunc:
		return 0, fmt.Errorf("vx64: call to missing function %d", t.arg)
	case trapBadReg:
		return 0, fmt.Errorf("vx64: %s: register out of range in %s", name(), t.in)
	}
	return 0, fmt.Errorf("vx64: cannot execute %s", t.in)
}

// exec runs the decoded code from pc until a RET with no frame to
// return to, a trap or a fault. It returns how the run ended, the pc
// of the entry that ended it, and for a memory fault the address. It
// formats no errors; Run does, once the loop is done.
func (m *Machine) exec(pc int) (exit, int, uint64) {
	// The loop keeps pc, the counters, the flags and the register file
	// in locals. What only the rarer opcodes need (memory, the call
	// stack, the function table) stays behind m, so it does not compete
	// with them for machine registers. The register file has 256
	// entries so that indexing it with a byte-sized Reg needs no bounds
	// check; the decoder has rejected every register past NumRegs, so
	// only the first NumRegs entries are ever touched.
	code := m.dec.code
	var r [256]uint64
	copy(r[:], m.Regs[:])
	fa, fb := m.flagA, m.flagB
	cycles := m.Cycles
	maxInstrs := m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	// left counts down the instructions the budget still allows.
	var left uint64
	if m.Instrs < maxInstrs {
		left = maxInstrs - m.Instrs
	}
	start := left
	var ex exit
	var addr uint64

loop:
	for {
		d := &code[pc]
		pc++
		if left == 0 {
			// The budget is spent. A trap is not an instruction and
			// still reports itself; anything else is the instruction
			// that exceeds the budget, and counts.
			if d.op == opTrap {
				ex = exitTrap
			} else {
				ex = exitBudget
				m.Instrs++
				cycles += uint64(d.cost)
			}
			break
		}
		left--
		cycles += uint64(d.cost)

		switch d.op {
		case MOVri:
			r[d.dst] = uint64(d.imm)
		case MOVrr:
			r[d.dst] = r[d.src]
		case MOVSX:
			s := uint64(d.imm) & 63
			r[d.dst] = uint64(int64(r[d.src]<<s) >> s)
		case MOVZX:
			r[d.dst] = r[d.src] & uint64(d.imm)
		case ADDrr:
			r[d.dst] += r[d.src]
		case SUBrr:
			r[d.dst] -= r[d.src]
		case IMULrr:
			r[d.dst] *= r[d.src]
		case ANDrr:
			r[d.dst] &= r[d.src]
		case ORrr:
			r[d.dst] |= r[d.src]
		case XORrr:
			r[d.dst] ^= r[d.src]
		case SHLrr:
			r[d.dst] <<= r[d.src] & 63
		case SHRrr:
			r[d.dst] >>= r[d.src] & 63
		case SARrr:
			r[d.dst] = uint64(int64(r[d.dst]) >> (r[d.src] & 63))
		case UDIVrr:
			if r[d.src] == 0 {
				ex = exitDivZero
				break loop
			}
			r[d.dst] /= r[d.src]
		case UREMrr:
			if r[d.src] == 0 {
				ex = exitDivZero
				break loop
			}
			r[d.dst] %= r[d.src]
		case SDIVrr, SREMrr:
			n, q := int64(r[d.dst]), int64(r[d.src])
			if q == 0 {
				ex = exitDivZero
				break loop
			}
			if n == -1<<63 && q == -1 {
				ex = exitDivOverflow
				break loop
			}
			if d.op == SDIVrr {
				r[d.dst] = uint64(n / q)
			} else {
				r[d.dst] = uint64(n % q)
			}
		case ADDri:
			r[d.dst] += uint64(d.imm)
		case ANDri:
			r[d.dst] &= uint64(d.imm)
		case ORri:
			r[d.dst] |= uint64(d.imm)
		case XORri:
			r[d.dst] ^= uint64(d.imm)
		case SHLri:
			r[d.dst] <<= uint64(d.imm) & 63
		case SHRri:
			r[d.dst] >>= uint64(d.imm) & 63
		case SARri:
			r[d.dst] = uint64(int64(r[d.dst]) >> (uint64(d.imm) & 63))
		case CMPrr:
			fa, fb = r[d.dst], r[d.src]
		case CMPri:
			fa, fb = r[d.dst], uint64(d.imm)
		case SETcc:
			if d.cond.Holds(fa, fb) {
				r[d.dst] = 1
			} else {
				r[d.dst] = 0
			}
		case CMOVcc:
			if d.cond.Holds(fa, fb) {
				r[d.dst] = r[d.src]
			}
		case LEA:
			a := r[d.src] + uint64(d.imm)
			if d.scale != 0 {
				a += r[d.src2] * uint64(d.scale)
			}
			r[d.dst] = a
		case opLOAD8:
			a := r[d.src] + uint64(d.imm)
			if !mapped(m.Mem, a, 8) {
				ex, addr = exitLoadFault, a
				break loop
			}
			r[d.dst] = binary.LittleEndian.Uint64(m.Mem[a:])
		case opSTORE8:
			a := r[d.dst] + uint64(d.imm)
			if !mapped(m.Mem, a, 8) {
				ex, addr = exitStoreFault, a
				break loop
			}
			binary.LittleEndian.PutUint64(m.Mem[a:], r[d.src])
		case LOAD:
			a := r[d.src] + uint64(d.imm)
			if !mapped(m.Mem, a, uint64(d.size)) {
				ex, addr = exitLoadFault, a
				break loop
			}
			r[d.dst] = loadN(m.Mem[a:], d.size)
		case STORE:
			a := r[d.dst] + uint64(d.imm)
			if !mapped(m.Mem, a, uint64(d.size)) {
				ex, addr = exitStoreFault, a
				break loop
			}
			storeN(m.Mem[a:], d.size, r[d.src])
		case PUSH:
			a := r[SP] - 8
			r[SP] = a
			if !mapped(m.Mem, a, 8) {
				ex, addr = exitStoreFault, a
				break loop
			}
			binary.LittleEndian.PutUint64(m.Mem[a:], r[d.src])
		case POP:
			a := r[SP]
			if !mapped(m.Mem, a, 8) {
				ex, addr = exitLoadFault, a
				break loop
			}
			r[d.dst] = binary.LittleEndian.Uint64(m.Mem[a:])
			r[SP] = a + 8
		case JMP:
			pc = int(d.imm)
		case Jcc:
			if d.cond.Holds(fa, fb) {
				pc = int(d.imm)
			}
		case CALL:
			if len(m.frames) == MaxCallDepth {
				ex = exitCallDepth
				break loop
			}
			m.frames = append(m.frames, frame{ret: pc, fp: r[FP]})
			callee := &m.dec.funcs[d.imm]
			r[SP] -= callee.frame
			r[FP] = r[SP]
			pc = callee.entry
		case RET:
			r[SP] += uint64(d.imm)
			n := len(m.frames) - 1
			if n < 0 {
				ex = exitRet
				break loop
			}
			pc = m.frames[n].ret
			r[FP] = m.frames[n].fp
			m.frames = m.frames[:n]
		case opTrap:
			left++
			ex = exitTrap
			break loop
		case opFault:
			ex = exitTrap
			break loop
		}
	}

	copy(m.Regs[:], r[:])
	m.flagA, m.flagB = fa, fb
	m.Instrs += start - left
	m.Cycles = cycles
	m.frames = m.frames[:0]
	return ex, pc - 1, addr
}

// mapped reports whether the n bytes at address a lie in mapped
// memory: at or above GlobalBase and inside mem.
func mapped(mem []byte, a, n uint64) bool {
	return a >= GlobalBase && a <= uint64(len(mem)) && uint64(len(mem))-a >= n
}

// loadN reads size little-endian bytes from b.
func loadN(b []byte, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// storeN writes the low size bytes of v little-endian to b.
func storeN(b []byte, size uint8, v uint64) {
	for i := uint8(0); i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
