// Package isa defines the mini instruction set used by the LoopPoint
// reproduction in place of x86-64 binaries.
//
// Programs are built from images (the main binary and synchronization
// libraries such as libomp), which contain routines, which contain basic
// blocks of instructions. Every instruction is assigned a unique address at
// link time so that dynamic analyses (DCFG construction, BBV profiling,
// (PC, count) region markers) and timing simulation can operate on a
// realistic program representation: loops are genuine back edges,
// spin-waits are genuine loops inside a library image, and memory
// operations carry addresses that exercise a cache hierarchy.
package isa

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Op enumerates the instruction opcodes.
type Op uint8

// Instruction opcodes. Integer ALU ops operate on the integer register
// file, F-prefixed ops on the floating-point file. Memory is a flat,
// word-addressed (8-byte) array shared by all threads.
const (
	OpNop Op = iota
	// Integer ALU: Dst = A op B (or Imm when UseImm).
	OpIAdd
	OpISub
	OpIMul
	OpIDiv
	OpIRem
	OpIAnd
	OpIOr
	OpIXor
	OpIShl
	OpIShr
	OpIMov // Dst = A (or Imm)
	// Float ALU: FDst = FA op FB.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMov  // FDst = FA (or FImm)
	OpFMA   // FDst = FA*FB + FDst, the product rounded before the add (never fused)
	OpFSqrt // FDst = sqrt(FA)
	// FCmp writes 1 to integer Dst if FA cond FB else 0.
	OpFCmp
	// ICvtF converts integer A to float Dst; FCvtI the reverse, truncating
	// toward zero, with NaN, ±Inf and out-of-range values giving MinInt64.
	OpICvtF
	OpFCvtI
	// Memory: address (in words) = R[A] + Imm.
	OpILoad  // Dst = mem as int64
	OpIStore // mem = R[B]
	OpFLoad  // FDst = mem as float64
	OpFStore // mem = F[B]
	// Atomics (word-granular, sequentially consistent).
	OpAtomicAdd // Dst = old; mem += R[B]
	OpCmpXchg   // if mem == R[B] { mem = R[Dst]; Dst = 1 } else { Dst = 0 } -- see exec
	OpXchg      // Dst = old; mem = R[B]
	// Control flow.
	OpBr     // unconditional; Target
	OpBrCond // if R[A] cond R[B]/Imm then Target else Else
	OpCall   // call Callee (block 0); returns to next instruction
	OpRet
	OpHalt // thread finished
	// Synchronization / OS.
	OpFutexWait // if mem(R[A]+Imm) == R[B]: block until woken
	OpFutexWake // wake up to R[B] waiters on mem(R[A]+Imm); Dst = #woken
	OpPause     // spin-loop hint
	OpSyscall   // Dst = OS result; Imm = syscall number, R[A] = argument
	opMax
)

var opNames = [...]string{
	OpNop: "nop", OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul",
	OpIDiv: "idiv", OpIRem: "irem", OpIAnd: "iand", OpIOr: "ior",
	OpIXor: "ixor", OpIShl: "ishl", OpIShr: "ishr", OpIMov: "imov",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFMov: "fmov", OpFMA: "fma", OpFSqrt: "fsqrt", OpFCmp: "fcmp",
	OpICvtF: "icvtf", OpFCvtI: "fcvti",
	OpILoad: "ild", OpIStore: "ist", OpFLoad: "fld", OpFStore: "fst",
	OpAtomicAdd: "xadd", OpCmpXchg: "cmpxchg", OpXchg: "xchg",
	OpBr: "br", OpBrCond: "brc", OpCall: "call", OpRet: "ret",
	OpHalt: "halt", OpFutexWait: "futexwait", OpFutexWake: "futexwake",
	OpPause: "pause", OpSyscall: "syscall",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the opcode is a control transfer that ends a
// basic block.
func (o Op) IsBranch() bool {
	switch o {
	case OpBr, OpBrCond, OpRet, OpHalt:
		return true
	}
	return false
}

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool {
	switch o {
	case OpILoad, OpIStore, OpFLoad, OpFStore, OpAtomicAdd, OpCmpXchg, OpXchg, OpFutexWait, OpFutexWake:
		return true
	}
	return false
}

// IsWrite reports whether the opcode writes data memory.
func (o Op) IsWrite() bool {
	switch o {
	case OpIStore, OpFStore, OpAtomicAdd, OpCmpXchg, OpXchg:
		return true
	}
	return false
}

// IsCompute reports whether the opcode is pure register work: no memory,
// no control transfer, no OS model, no futex queue.
func (o Op) IsCompute() bool {
	switch o {
	case OpNop, OpPause,
		OpIAdd, OpISub, OpIMul, OpIDiv, OpIRem,
		OpIAnd, OpIOr, OpIXor, OpIShl, OpIShr,
		OpIMov, OpFAdd, OpFSub, OpFMul, OpFDiv,
		OpFMov, OpFMA, OpFSqrt, OpFCmp,
		OpICvtF, OpFCvtI:
		return true
	}
	return false
}

// Cond is a comparison condition for OpBrCond and OpFCmp.
type Cond uint8

// Comparison conditions (signed for integers).
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// EvalInt evaluates the condition on two signed integers.
func (c Cond) EvalInt(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	}
	return false
}

// EvalFloat evaluates the condition on two floats.
func (c Cond) EvalFloat(a, b float64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondGE:
		return a >= b
	}
	return false
}

// Reg names a register in either the integer or floating-point file
// (the opcode determines which file an operand refers to).
type Reg uint8

// Register-file sizes.
const (
	NumIntRegs   = 32
	NumFloatRegs = 32
)

// Register naming convention used by the builders in this repository:
// R0–R15 are kernel-local scratch, R16–R23 are call arguments and return
// values (R16 is the return register), and R24–R31 are reserved for the
// threading runtime (libomp). The floating-point file follows the same
// split. The ISA itself does not enforce the convention.
const (
	RegZero Reg = 0 // by convention holds 0 in generated code; not hardwired
	RegArg0 Reg = 16
	RegArg1 Reg = 17
	RegArg2 Reg = 18
	RegArg3 Reg = 19
	RegArg4 Reg = 20
	RegRet  Reg = 16
	RegTmp0 Reg = 21
	RegTmp1 Reg = 22
	RegTmp2 Reg = 23
	RegRT0  Reg = 24
	RegRT1  Reg = 25
	RegRT2  Reg = 26
	RegRT3  Reg = 27
	RegRT4  Reg = 28
	RegRT5  Reg = 29
	RegRT6  Reg = 30
	RegTid  Reg = 31 // initialized to the thread ID at thread start
)

// Syscall numbers understood by the exec package's default OS model.
type SyscallNo int64

const (
	SysRand  SyscallNo = 1 // pseudo-random int64 (host entropy; recorded in pinballs)
	SysTime  SyscallNo = 2 // monotonic tick
	SysWrite SyscallNo = 3 // discard output; returns arg
)

// Instr is a single instruction. Instructions are values stored inline in
// their basic block; the Addr field is assigned by Program.Link.
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Reg
	UseImm bool    // B operand replaced by Imm (integer ops, BrCond)
	Imm    int64   // immediate / memory offset in words / syscall number
	FImm   float64 // immediate for OpFMov with UseImm
	Cond   Cond    // OpBrCond, OpFCmp
	Target int     // block index within the routine (OpBr, OpBrCond)
	Else   int     // fall-through block index (OpBrCond)
	Callee *Routine

	Addr uint64 // unique global address; assigned by Link
}

func (in *Instr) String() string {
	switch in.Op {
	case OpBr:
		return fmt.Sprintf("br -> b%d", in.Target)
	case OpBrCond:
		if in.UseImm {
			return fmt.Sprintf("brc.%s r%d, %d -> b%d else b%d", in.Cond, in.A, in.Imm, in.Target, in.Else)
		}
		return fmt.Sprintf("brc.%s r%d, r%d -> b%d else b%d", in.Cond, in.A, in.B, in.Target, in.Else)
	case OpCall:
		return fmt.Sprintf("call %s", in.Callee.Name)
	default:
		return in.Op.String()
	}
}

// Block is a single-entry straight-line sequence of instructions ending in
// a terminator (branch, return, or halt).
type Block struct {
	ID     int // index within the routine
	Label  string
	Instrs []Instr

	Routine *Routine
	Addr    uint64 // address of the first instruction; assigned by Link
	Global  int    // global block index across the program; assigned by Link

	// Execution-shape facts the interpreter's block tier reads on every
	// entry, assigned by Link. ALULen is the length of the leading
	// straight-line compute run (Op.IsCompute), which executes with no
	// event bookkeeping. SelfLoop marks a terminator that can re-enter the
	// block through exactly one edge, so back-to-back passes coalesce into
	// one event.
	ALULen   int
	SelfLoop bool
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

func (b *Block) String() string {
	return fmt.Sprintf("%s.%s#%d", b.Routine.Name, b.Label, b.ID)
}

// Routine is a callable unit of blocks. Execution enters at Blocks[0].
type Routine struct {
	Name   string
	Blocks []*Block
	Image  *Image
	ID     int // index within the image
}

// NewBlock appends a new, empty block to the routine and returns it.
func (r *Routine) NewBlock(label string) *Block {
	b := &Block{ID: len(r.Blocks), Label: label, Routine: r}
	r.Blocks = append(r.Blocks, b)
	return b
}

// Image is a loadable unit: the main binary or a library. Images flagged
// Sync hold synchronization code (e.g. the OpenMP runtime); profiling
// filters their instructions out of BBVs and never places region markers
// inside them (paper Sections II and IV-F).
type Image struct {
	Name     string
	Sync     bool
	Routines []*Routine
	Program  *Program
	ID       int
}

// NewRoutine appends a new routine to the image and returns it.
func (img *Image) NewRoutine(name string) *Routine {
	r := &Routine{Name: name, Image: img, ID: len(img.Routines)}
	img.Routines = append(img.Routines, r)
	return r
}

// Program is a complete linked unit: images, the per-thread entry
// routines, and the size of the shared data memory.
type Program struct {
	Name     string
	Images   []*Image
	Entries  []*Routine // entry routine per thread; len == NumThreads
	MemWords uint64     // shared memory size in 8-byte words

	symbols map[string]uint64
	brk     uint64 // allocation high-water mark, in words

	linked      bool
	numBlocks   int
	numInstrs   int
	blockByAddr map[uint64]*Block
}

// NewProgram creates an empty program for nthreads threads.
func NewProgram(name string, nthreads int) *Program {
	if nthreads < 1 {
		panic("isa: program needs at least one thread")
	}
	return &Program{
		Name:    name,
		Entries: make([]*Routine, nthreads),
		symbols: make(map[string]uint64),
		brk:     64, // keep address 0 unused; low words reserved
	}
}

// NumThreads returns the thread count the program was built for.
func (p *Program) NumThreads() int { return len(p.Entries) }

// AddImage appends an image. Sync images hold synchronization-library code.
func (p *Program) AddImage(name string, sync bool) *Image {
	img := &Image{Name: name, Sync: sync, Program: p, ID: len(p.Images)}
	p.Images = append(p.Images, img)
	return img
}

// Alloc reserves n words of shared memory under the given symbol name and
// returns the word address of the first element.
func (p *Program) Alloc(name string, n uint64) uint64 {
	if _, dup := p.symbols[name]; dup {
		panic(fmt.Sprintf("isa: duplicate symbol %q", name))
	}
	addr := p.brk
	p.symbols[name] = addr
	p.brk += n
	// Pad to a cache line (8 words) so unrelated symbols do not
	// false-share unless a workload asks for it explicitly.
	if rem := p.brk % 8; rem != 0 {
		p.brk += 8 - rem
	}
	return addr
}

// Symbol returns the address of a previously allocated symbol.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.symbols[name]
	return a, ok
}

// SetEntry sets the entry routine for thread tid.
func (p *Program) SetEntry(tid int, r *Routine) {
	p.Entries[tid] = r
}

// NumBlocks returns the total number of basic blocks (valid after Link).
func (p *Program) NumBlocks() int { return p.numBlocks }

// NumInstrs returns the total number of static instructions (valid after Link).
func (p *Program) NumInstrs() int { return p.numInstrs }

// BlockByAddr returns the block whose first instruction is at addr.
func (p *Program) BlockByAddr(addr uint64) (*Block, bool) {
	b, ok := p.blockByAddr[addr]
	return b, ok
}

// Link assigns addresses to every instruction and block, sizes the memory,
// and validates the program. It must be called exactly once, after all
// code has been emitted and before execution.
func (p *Program) Link() error {
	if p.linked {
		return fmt.Errorf("isa: program %q already linked", p.Name)
	}
	// Code addresses live above the data segment so instruction fetch
	// and data accesses never alias in the caches.
	const codeAlign = 4 // words per instruction slot
	addr := p.brk + 4096
	p.blockByAddr = make(map[uint64]*Block)
	global := 0
	for _, img := range p.Images {
		for _, r := range img.Routines {
			if len(r.Blocks) == 0 {
				return fmt.Errorf("isa: routine %s/%s has no blocks", img.Name, r.Name)
			}
			for i, b := range r.Blocks {
				if len(b.Instrs) == 0 {
					return fmt.Errorf("isa: empty block %s", b)
				}
				b.Addr = addr
				b.Global = global
				global++
				p.blockByAddr[addr] = b
				for j := range b.Instrs {
					b.Instrs[j].Addr = addr
					addr += codeAlign
					p.numInstrs++
				}
				if err := p.checkBlock(b); err != nil {
					return err
				}
				for b.Instrs[b.ALULen].Op.IsCompute() { // stops at the terminator at the latest
					b.ALULen++
				}
				switch term := b.Terminator(); term.Op {
				case OpBr:
					b.SelfLoop = term.Target == i
				case OpBrCond:
					// Coalescable only when exactly one edge re-enters.
					b.SelfLoop = (term.Target == i) != (term.Else == i)
				}
			}
		}
	}
	p.numBlocks = global
	p.MemWords = p.brk
	for tid, e := range p.Entries {
		if e == nil {
			return fmt.Errorf("isa: thread %d has no entry routine", tid)
		}
	}
	p.linked = true
	return nil
}

func (p *Program) checkBlock(b *Block) error {
	term := b.Terminator()
	if !term.Op.IsBranch() {
		return fmt.Errorf("isa: block %s does not end in a terminator (ends in %s)", b, term.Op)
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.IsBranch() && i != len(b.Instrs)-1 {
			return fmt.Errorf("isa: block %s has mid-block terminator %s at %d", b, in.Op, i)
		}
		switch in.Op {
		case OpBr:
			if in.Target < 0 || in.Target >= len(b.Routine.Blocks) {
				return fmt.Errorf("isa: block %s: branch target b%d out of range", b, in.Target)
			}
		case OpBrCond:
			if in.Target < 0 || in.Target >= len(b.Routine.Blocks) ||
				in.Else < 0 || in.Else >= len(b.Routine.Blocks) {
				return fmt.Errorf("isa: block %s: brcond targets (b%d, b%d) out of range", b, in.Target, in.Else)
			}
		case OpCall:
			if in.Callee == nil {
				return fmt.Errorf("isa: block %s: call with nil callee", b)
			}
		}
		if int(in.Dst) >= NumIntRegs || int(in.A) >= NumIntRegs || int(in.B) >= NumIntRegs {
			return fmt.Errorf("isa: block %s: register out of range in %s", b, in.Op)
		}
	}
	return nil
}

// Checksum returns an FNV-1a hash of everything execution reads (valid
// after Link): every instruction — opcode, registers, immediates,
// condition, branch targets, callee and address — in link order with the
// block and routine shape around it, each image's Sync flag, the
// per-thread entry routines and MemWords. Two builds of one workload share
// it; programs that could execute differently do not. Names, labels and
// symbols are not read by execution and are not part of it.
func (p *Program) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(p.MemWords)
	put(uint64(len(p.Entries)))
	for _, e := range p.Entries {
		put(e.Blocks[0].Addr)
	}
	for _, img := range p.Images {
		put(flag(img.Sync))
		put(uint64(len(img.Routines)))
		for _, r := range img.Routines {
			put(uint64(len(r.Blocks)))
			for _, b := range r.Blocks {
				put(uint64(len(b.Instrs)))
				for i := range b.Instrs {
					in := &b.Instrs[i]
					put(uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.A)<<16 | uint64(in.B)<<24 |
						flag(in.UseImm)<<32 | uint64(in.Cond)<<40)
					put(uint64(in.Imm))
					put(math.Float64bits(in.FImm))
					put(uint64(in.Target))
					put(uint64(in.Else))
					var callee uint64
					if in.Callee != nil {
						callee = in.Callee.Blocks[0].Addr
					}
					put(callee)
					put(in.Addr)
				}
			}
		}
	}
	return h.Sum64()
}

// Blocks returns all blocks in link order (valid after Link).
func (p *Program) Blocks() []*Block {
	out := make([]*Block, 0, p.numBlocks)
	for _, img := range p.Images {
		for _, r := range img.Routines {
			out = append(out, r.Blocks...)
		}
	}
	return out
}
