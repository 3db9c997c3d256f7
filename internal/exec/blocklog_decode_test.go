package exec_test

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"looppoint/internal/artifact"
	"looppoint/internal/bbv"
	"looppoint/internal/dcfg"
	"looppoint/internal/exec"
	"looppoint/internal/isa"
	"looppoint/internal/omp"
	"looppoint/internal/pinball"
	"looppoint/internal/testprog"
)

// savedLog is a log's saved form split for the decoder tests: the record
// bytes without their trailer, and the schedule of the recording they were
// logged on, as uvarint (Tid, N) pairs so a fuzzer can mutate it too.
type savedLog struct {
	body, sched []byte
}

// seal appends the trailer AppendBinary writes, so an edited body reaches
// the checks behind the checksum.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), artifact.Checksum(body))
}

func encodeSchedule(s exec.Schedule) []byte {
	var out []byte
	for _, e := range s {
		out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(e.Tid)), uint64(e.N))
	}
	return out
}

// decodeSchedule reads encodeSchedule's pairs, up to the first that does
// not parse.
func decodeSchedule(b []byte) exec.Schedule {
	var s exec.Schedule
	for {
		tid, n := binary.Uvarint(b)
		if n <= 0 {
			return s
		}
		count, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return s
		}
		s = append(s, exec.ScheduleEntry{Tid: int(tid % (1 << 16)), N: uint32(count)})
		b = b[n+m:]
	}
}

// genuineLog records a small phased program with a BlockLog attached and
// returns the program and the log's saved form.
func genuineLog(tb testing.TB) (*isa.Program, savedLog) {
	tb.Helper()
	p := testprog.Phased(2, 2, 30, omp.Passive)
	log := exec.NewBlockLog(p)
	pb, err := pinball.RecordWithOptions(p, 5, exec.RunOpts{FlowWindow: 4096}, log)
	if err != nil {
		tb.Fatal(err)
	}
	data := log.AppendBinary(nil)
	return p, savedLog{body: data[:len(data)-8], sched: encodeSchedule(pb.Schedule)}
}

// hostileLog is a saved log DecodeBlockLog must reject with want once its
// body is sealed with a valid checksum.
type hostileLog struct {
	name string
	log  savedLog
	want error
}

// hostileLogs are one record Play cannot re-emit ahead of the genuine
// records, a torn record after them, or the genuine records against
// another interleaving.
func hostileLogs(p *isa.Program, genuine savedLog) []hostileLog {
	rec := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	ahead := func(r []byte) savedLog {
		return savedLog{body: append(r, genuine.body...), sched: genuine.sched}
	}
	nblocks, nthreads := uint64(p.NumBlocks()), uint64(p.NumThreads())
	pass0 := uint64(len(p.Blocks()[0].Instrs))
	rotated := decodeSchedule(genuine.sched)
	for i := range rotated {
		rotated[i].Tid = (rotated[i].Tid + 1) % int(nthreads)
	}
	return []hostileLog{
		{"block outside the program", ahead(rec(nblocks << 1)), artifact.ErrCorrupt},
		{"long-form block outside", ahead(rec(nblocks<<1|1, 0, 0, 1, 1)), artifact.ErrCorrupt},
		{"thread outside the program", ahead(rec(1, nthreads, 0, 1, pass0)), artifact.ErrCorrupt},
		{"first index outside the block", ahead(rec(1, 0, pass0, 0, 1)), artifact.ErrCorrupt},
		{"more entries than instructions", ahead(rec(1, 0, 0, 3, 1)), artifact.ErrCorrupt},
		{"an entry past a pass's end", ahead(rec(1, 0, 0, 1, pass0+1)), artifact.ErrCorrupt},
		{"no entry and no instruction", ahead(rec(1, 0, 1, 0, 0)), artifact.ErrCorrupt},
		{"uvarint overflowing 64 bits", ahead(append(rec(1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)), artifact.ErrCorrupt},
		{"torn uvarint", savedLog{append(append([]byte(nil), genuine.body...), 0x80), genuine.sched}, artifact.ErrTruncated},
		{"torn record", savedLog{append(append([]byte(nil), genuine.body...), 1, 0), genuine.sched}, artifact.ErrTruncated},
		{"another interleaving", savedLog{genuine.body, encodeSchedule(rotated)}, artifact.ErrCorrupt},
		{"schedule longer than the log", savedLog{genuine.body, append(append([]byte(nil), genuine.sched...), 0, 1)}, artifact.ErrCorrupt},
		{"log longer than its schedule", savedLog{genuine.body, encodeSchedule(decodeSchedule(genuine.sched)[1:])}, artifact.ErrCorrupt},
		{"an empty log of a nonempty sched", savedLog{nil, genuine.sched}, artifact.ErrCorrupt},
	}
}

// TestDecodeBlockLogRejectsHostileLogs: a saved log decodes only when every
// record is an event of the program and the records, merged per thread,
// are the recording's schedule; anything else is a typed error, never a
// panic. The genuine log decodes, and its saved form with a flipped bit or
// cut inside the trailer is corrupt or truncated.
func TestDecodeBlockLogRejectsHostileLogs(t *testing.T) {
	p, genuine := genuineLog(t)
	sched := decodeSchedule(genuine.sched)
	if _, err := exec.DecodeBlockLog(p, sched, seal(genuine.body)); err != nil {
		t.Fatalf("the genuine log: %v", err)
	}
	flipped := seal(genuine.body)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := exec.DecodeBlockLog(p, sched, flipped); !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("a flipped bit: %v, want ErrCorrupt", err)
	}
	if _, err := exec.DecodeBlockLog(p, sched, seal(nil)[:7]); !errors.Is(err, artifact.ErrTruncated) {
		t.Fatalf("a log cut inside its trailer: %v, want ErrTruncated", err)
	}
	for _, h := range hostileLogs(p, genuine) {
		_, err := exec.DecodeBlockLog(p, decodeSchedule(h.log.sched), seal(h.log.body))
		if !errors.Is(err, h.want) {
			t.Errorf("%s: %v, want %v", h.name, err, h.want)
		}
	}
}

// FuzzDecodeBlockLog hardens the decoder a resume trusts in place of
// executing the program: whatever DecodeBlockLog accepts is played into a
// DCFG builder, loops and markers are found on the graph, and the log is
// played again into a collector on those markers — core's resume, which
// must never panic. Bodies are sealed by the harness, so mutations reach
// the checks behind the checksum; an accepted log must save to bytes that
// decode again.
func FuzzDecodeBlockLog(f *testing.F) {
	p, genuine := genuineLog(f)
	f.Add(genuine.body, genuine.sched)
	for _, h := range hostileLogs(p, genuine) {
		f.Add(h.log.body, h.log.sched)
	}
	// Accepted though no run has it: thread 0 starts mid-block, not at the
	// entry the builder watches a thread from, on a call.
	for _, blk := range p.Blocks() {
		if i := slices.IndexFunc(blk.Instrs[1:], func(in isa.Instr) bool { return in.Op == isa.OpCall }); i >= 0 {
			var r []byte
			for _, v := range []uint64{uint64(blk.Global)<<1 | 1, 0, uint64(i + 1), 0, 1} {
				r = binary.AppendUvarint(r, v)
			}
			f.Add(r, encodeSchedule(exec.Schedule{{Tid: 0, N: 1}}))
			break
		}
	}
	f.Fuzz(func(t *testing.T, body, schedBytes []byte) {
		sched := decodeSchedule(schedBytes)
		log, err := exec.DecodeBlockLog(p, sched, seal(body))
		if err != nil {
			if !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, artifact.ErrTruncated) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		db := dcfg.NewBuilder(p, p.NumThreads())
		db.ReadLog(log)
		g := db.Graph()
		var markers []uint64
		for _, h := range g.StableMarkers(g.FindLoops(), 64) {
			markers = append(markers, h.Addr)
		}
		col := bbv.NewCollector(p, markers, 1000)
		col.ReadLog(log)
		col.Finish()
		if _, err := exec.DecodeBlockLog(p, sched, log.AppendBinary(nil)); err != nil {
			t.Fatalf("an accepted log saves to bytes that do not decode: %v", err)
		}
	})
}
