package exec_test

import (
	"bytes"
	"fmt"
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
// events are cut.
type instrStream struct {
	instrs []uint64
	events int
	err    error
}

func newInstrStream(steps uint64) *instrStream {
	return &instrStream{instrs: make([]uint64, 0, steps)}
}

func (s *instrStream) OnBlock(ev *exec.BlockEvent) {
	s.events++
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
// test program, a recording run keeps a BlockLog, and playing the log must
// retire the same instructions, in the same order, with the same block
// entries, as a constrained replay of the recording. The two streams cut
// events differently (the recorder merges back-to-back quanta of one
// thread, so the replay coalesces across boundaries the recording split
// at), hence the per-instruction comparison. The log's saved form
// (AppendBinary, DecodeBlockLog) and a second Play of the same log must
// each reproduce the first Play exactly.
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
	for name, p := range progs {
		log := exec.NewBlockLog(p)
		pb, err := pinball.RecordWithOptions(p, 7, exec.RunOpts{FlowWindow: 4096}, log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		steps := pb.Schedule.Steps()
		played, replayed := newInstrStream(steps), newInstrStream(steps)
		log.Play(played)
		if _, err := pb.Replay(p, replayed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if played.err != nil {
			t.Fatalf("%s: played: %v", name, played.err)
		}
		if replayed.err != nil {
			t.Fatalf("%s: replayed: %v", name, replayed.err)
		}
		if uint64(len(replayed.instrs)) != steps || len(played.instrs) != len(replayed.instrs) {
			t.Fatalf("%s: played %d instructions, replayed %d, the recording has %d",
				name, len(played.instrs), len(replayed.instrs), steps)
		}
		for i, w := range replayed.instrs {
			if played.instrs[i] != w {
				t.Fatalf("%s: instruction %d: played (tid %d, block %d, idx %d, entry %d), replayed (tid %d, block %d, idx %d, entry %d)",
					name, i, played.instrs[i]>>48, played.instrs[i]>>24&0xffffff, played.instrs[i]>>1&0x7fffff, played.instrs[i]&1,
					w>>48, w>>24&0xffffff, w>>1&0x7fffff, w&1)
			}
		}
		// The log's saved form decodes to the same bytes and plays the
		// same stream, and so does the log itself, played again.
		saved := log.AppendBinary(nil)
		decoded, err := exec.DecodeBlockLog(p, pb.Schedule, saved)
		if err != nil {
			t.Fatalf("%s: decoding the saved log: %v", name, err)
		}
		if !bytes.Equal(decoded.AppendBinary(nil), saved) {
			t.Fatalf("%s: the decoded log saves to other bytes", name)
		}
		for _, again := range []struct {
			name string
			log  *exec.BlockLog
		}{{"decoded", decoded}, {"played again", log}} {
			s := newInstrStream(steps)
			again.log.Play(s)
			if s.err != nil || s.events != played.events || !slices.Equal(s.instrs, played.instrs) {
				t.Fatalf("%s: the %s log plays %d events (err %v) unlike the first Play's %d, or other instructions",
					name, again.name, s.events, s.err, played.events)
			}
		}
	}
}
