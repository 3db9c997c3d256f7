package exec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
	"looppoint/internal/workloads"
)

// instrStream is a block observer that expands the events it is handed to
// one word per retired instruction — (tid, block, index in block, is-entry)
// — so two block-tier streams of one execution compare equal however their
// events are cut. It also checks the break-PC contract on the events
// themselves: an entry of a break block arrives alone, as
// {FirstIdx 0, Entries 1, Instrs 1}.
type instrStream struct {
	breakPCs []uint64
	isBreak  map[*isa.Block]bool
	instrs   []uint64
	events   int
	// resumedEntries counts events that resume a break block mid-pass and
	// then re-enter it: the case whose leading partial pass Play must keep.
	resumedEntries int
	err            error
}

func newInstrStream(p *isa.Program, breakPCs []uint64, steps uint64) *instrStream {
	s := &instrStream{breakPCs: breakPCs, isBreak: map[*isa.Block]bool{}, instrs: make([]uint64, 0, steps)}
	for _, pc := range breakPCs {
		blk, _ := p.BlockByAddr(pc)
		s.isBreak[blk] = true
	}
	return s
}

func (s *instrStream) BreakPCs() []uint64 { return s.breakPCs }

func (s *instrStream) OnBlock(ev *exec.BlockEvent) {
	s.events++
	if s.isBreak[ev.Block] && ev.Entries > 0 && (ev.FirstIdx != 0 || ev.Entries != 1 || ev.Instrs != 1) && s.err == nil {
		s.err = fmt.Errorf("event %d enters break block %s as {FirstIdx %d, Entries %d, Instrs %d}, want {0, 1, 1}",
			s.events, ev.Block, ev.FirstIdx, ev.Entries, ev.Instrs)
	}
	if ev.FirstIdx > 0 && ev.Entries > 0 {
		s.resumedEntries++
	}
	idx, entries := ev.FirstIdx, ev.Entries
	for n := ev.Instrs; n > 0; n-- {
		w := uint64(ev.Tid)<<48 | uint64(ev.Block.Global)<<24 | uint64(idx)<<1
		if idx == 0 && entries > 0 {
			w |= 1
			entries--
		}
		s.instrs = append(s.instrs, w)
		if idx++; idx == len(ev.Block.Instrs) {
			idx = 0
		}
	}
	if entries != 0 && s.err == nil {
		s.err = fmt.Errorf("event %d on %s claims %d entries more than its %d instructions from index %d pass instruction 0",
			s.events, ev.Block, entries, ev.Instrs, ev.FirstIdx)
	}
}

// TestBlockLogPlayMatchesReplay is the log's differential test: for every
// registered workload under both wait policies (test input) and a phased
// test program, a recording run keeps a BlockLog, and for three break-PC
// sets — none, a seeded random third of the blocks, every block — playing
// the log must retire the same instructions, in the same order, with the
// same block entries, as a constrained replay of the recording with those
// break PCs registered on the machine. The two streams cut events
// differently (the recorder merges back-to-back quanta of one thread, so
// the replay coalesces across boundaries the recording split at), hence the
// per-instruction comparison; the break-PC contract is checked on the
// events of both. The log's saved form (AppendBinary, DecodeBlockLog) and a
// second Play of the same log must each reproduce the first Play exactly.
func TestBlockLogPlayMatchesReplay(t *testing.T) {
	progs := map[string]*isa.Program{"phased": testprog.Phased(4, 3, 40, omp.Passive)}
	for _, spec := range workloads.All() {
		for _, policy := range []omp.WaitPolicy{omp.Passive, omp.Active} {
			app, err := spec.Build(workloads.BuildParams{Threads: 4, Input: workloads.InputTest, Policy: policy})
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			progs[fmt.Sprintf("%s/%v", spec.Name, policy)] = app.Prog
		}
	}
	resplit := 0
	for name, p := range progs {
		blocks := p.Blocks()
		rng := rand.New(rand.NewSource(int64(len(blocks))))
		var third, all []uint64
		for _, blk := range blocks {
			all = append(all, blk.Addr)
			if rng.Intn(3) == 0 {
				third = append(third, blk.Addr)
			}
		}
		// One log per set, so each set's first Play is a fresh log's; the
		// saved-form round trip and a second Play then reuse it.
		sets := map[string][]uint64{"none": nil, "third": third, "all": all}
		logs := map[string]*exec.BlockLog{}
		var observers []exec.BlockObserver
		for setName := range sets {
			logs[setName] = exec.NewBlockLog(p)
			observers = append(observers, logs[setName])
		}
		pb, err := pinball.RecordWithOptions(p, 7, exec.RunOpts{FlowWindow: 4096}, observers...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for setName, breakPCs := range sets {
			steps := pb.Schedule.Steps()
			played, replayed := newInstrStream(p, breakPCs, steps), newInstrStream(p, breakPCs, steps)
			logs[setName].Play(played)
			if _, err := pb.Replay(p, replayed); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			label := name + " break=" + setName
			if played.err != nil {
				t.Fatalf("%s: played: %v", label, played.err)
			}
			if replayed.err != nil {
				t.Fatalf("%s: replayed: %v", label, replayed.err)
			}
			if uint64(len(replayed.instrs)) != steps || len(played.instrs) != len(replayed.instrs) {
				t.Fatalf("%s: played %d instructions, replayed %d, the recording has %d",
					label, len(played.instrs), len(replayed.instrs), steps)
			}
			for i, w := range replayed.instrs {
				if played.instrs[i] != w {
					t.Fatalf("%s: instruction %d: played (tid %d, block %d, idx %d, entry %d), replayed (tid %d, block %d, idx %d, entry %d)",
						label, i, played.instrs[i]>>48, played.instrs[i]>>24&0xffffff, played.instrs[i]>>1&0x7fffff, played.instrs[i]&1,
						w>>48, w>>24&0xffffff, w>>1&0x7fffff, w&1)
				}
			}
			if setName == "none" {
				resplit += played.resumedEntries
			}
			// The log's saved form decodes to the same bytes and plays the
			// same stream, and so does the log itself, played again.
			saved := logs[setName].AppendBinary(nil)
			decoded, err := exec.DecodeBlockLog(p, pb.Schedule, saved)
			if err != nil {
				t.Fatalf("%s: decoding the saved log: %v", label, err)
			}
			if !bytes.Equal(decoded.AppendBinary(nil), saved) {
				t.Fatalf("%s: the decoded log saves to other bytes", label)
			}
			for _, again := range []struct {
				name string
				log  *exec.BlockLog
			}{{"decoded", decoded}, {"played again", logs[setName]}} {
				s := newInstrStream(p, breakPCs, steps)
				again.log.Play(s)
				if s.err != nil || s.events != played.events || !slices.Equal(s.instrs, played.instrs) {
					t.Fatalf("%s: the %s log plays %d events (err %v) unlike the first Play's %d, or other instructions",
						label, again.name, s.events, s.err, played.events)
				}
			}
		}
	}
	// With no break PC the played stream is the logged one: it must hold
	// the events whose re-split has a leading partial pass.
	if resplit == 0 {
		t.Fatal("no logged event resumed a block mid-pass and re-entered it; the leading-partial-pass case was never compared")
	}
}
