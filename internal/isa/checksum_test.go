package isa_test

import (
	"reflect"
	"testing"

	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/workloads"
)

// build links one workload spec.
func build(t *testing.T, app string, par workloads.BuildParams) *isa.Program {
	t.Helper()
	spec, ok := workloads.Lookup(app)
	if !ok {
		t.Fatalf("no workload %s", app)
	}
	a, err := spec.Build(par)
	if err != nil {
		t.Fatal(err)
	}
	return a.Prog
}

// TestChecksumNamesWhatExecutes: two builds of one workload spec share a
// checksum; another policy, input or thread count, a change to any single
// field of one instruction, another entry routine, another Sync flag or
// another memory size each give another one.
func TestChecksumNamesWhatExecutes(t *testing.T) {
	const app = "npb-cg"
	par := workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: omp.Passive}
	base := build(t, app, par).Checksum()
	if again := build(t, app, par).Checksum(); again != base {
		t.Fatalf("two builds of one spec: checksums %#x and %#x", base, again)
	}

	rebuilt := func(edit func(*workloads.BuildParams)) func(*testing.T) uint64 {
		return func(t *testing.T) uint64 {
			p := par
			edit(&p)
			return build(t, app, p).Checksum()
		}
	}
	// edited builds the base program, applies edit after Link and hashes it.
	edited := func(edit func(*testing.T, *isa.Program)) func(*testing.T) uint64 {
		return func(t *testing.T) uint64 {
			p := build(t, app, par)
			edit(t, p)
			return p.Checksum()
		}
	}
	// instr edits the first instruction of the given opcode.
	instr := func(op isa.Op, edit func(*isa.Instr)) func(*testing.T) uint64 {
		return edited(func(t *testing.T, p *isa.Program) {
			for _, b := range p.Blocks() {
				for i := range b.Instrs {
					if b.Instrs[i].Op == op {
						edit(&b.Instrs[i])
						return
					}
				}
			}
			t.Fatalf("no %s instruction in %s", op, app)
		})
	}
	cases := []struct {
		name  string
		field string // the Instr field the case edits, if any
		sum   func(*testing.T) uint64
	}{
		{"policy", "", rebuilt(func(p *workloads.BuildParams) { p.Policy = omp.Active })},
		{"input", "", rebuilt(func(p *workloads.BuildParams) { p.Input = workloads.InputTrain })},
		{"threads", "", rebuilt(func(p *workloads.BuildParams) { p.Threads = 2 })},
		{"Op", "Op", instr(isa.OpIAdd, func(in *isa.Instr) { in.Op = isa.OpISub })},
		{"Dst", "Dst", instr(isa.OpIAdd, func(in *isa.Instr) { in.Dst++ })},
		{"A", "A", instr(isa.OpIAdd, func(in *isa.Instr) { in.A++ })},
		{"B", "B", instr(isa.OpIAdd, func(in *isa.Instr) { in.B++ })},
		{"UseImm", "UseImm", instr(isa.OpIAdd, func(in *isa.Instr) { in.UseImm = !in.UseImm })},
		{"Imm", "Imm", instr(isa.OpIAdd, func(in *isa.Instr) { in.Imm++ })},
		{"FImm", "FImm", instr(isa.OpFMov, func(in *isa.Instr) { in.FImm += 0.5 })},
		{"Cond", "Cond", instr(isa.OpBrCond, func(in *isa.Instr) { in.Cond ^= 1 })},
		{"Target", "Target", instr(isa.OpBrCond, func(in *isa.Instr) { in.Target = in.Else })},
		{"Else", "Else", instr(isa.OpBrCond, func(in *isa.Instr) { in.Else = in.Target })},
		{"Callee", "Callee", edited(func(t *testing.T, p *isa.Program) {
			for _, b := range p.Blocks() {
				for i := range b.Instrs {
					if in := &b.Instrs[i]; in.Op == isa.OpCall && in.Callee != p.Entries[0] {
						in.Callee = p.Entries[0]
						return
					}
				}
			}
			t.Fatal("no call to retarget")
		})},
		{"Addr", "Addr", instr(isa.OpIAdd, func(in *isa.Instr) { in.Addr++ })},
		{"entry routine", "", edited(func(t *testing.T, p *isa.Program) {
			for _, img := range p.Images {
				for _, r := range img.Routines {
					if r != p.Entries[1] {
						p.Entries[1] = r
						return
					}
				}
			}
			t.Fatal("no other routine to enter")
		})},
		{"Sync flag", "", edited(func(_ *testing.T, p *isa.Program) { p.Images[0].Sync = !p.Images[0].Sync })},
		{"MemWords", "", edited(func(_ *testing.T, p *isa.Program) { p.MemWords++ })},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.sum(t); got == base {
				t.Fatalf("changing the %s left the checksum at %#x", c.name, base)
			}
		})
		covered[c.field] = true
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(isa.Instr{})) {
		if !covered[f.Name] {
			t.Errorf("no case changes Instr.%s", f.Name)
		}
	}
}
