package main

import "time"

// The host-speed index.
//
// The reference host is a 2-vCPU guest on a shared machine, and the speed
// of everything this repository does (interpreter, timing model,
// clustering) switches between an undisturbed mode and one up to 1.7x
// slower, in bursts of milliseconds whose share of the time drifts over
// minutes (README.md has the measurements). A whole 30 s pass can fall in
// a slow phase, so no summary over the samples of a pass — median, lower
// quartile, minimum — is steady from pass to pass.
//
// What is steady is the ratio of a job's time to the time of a fixed
// piece of work measured next to it. refKernel is that work: a small
// byte-code interpreter loop owned by the benchmark, so no change to the
// repository can make it faster. It is run between jobs and between
// rounds, never inside a timed span, and the pass's index is its mean
// time over refKernelMS, its time on the undisturbed reference host. The
// end-to-end metrics are the measured values divided by the index: what
// the pass would have measured on the undisturbed host. The measured
// values and the index are printed and stored beside them.

// refKernelMS is refKernel's time on the undisturbed reference host. It
// only scales the metrics; comparisons between commits do not depend on it.
const refKernelMS = 10.5

var (
	refCode [4096]uint32
	refMem  [1 << 16]uint64
	refSink uint64
)

func init() {
	x := uint64(99)
	for i := range refCode {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refCode[i] = uint32(x)
	}
}

// refKernel interprets four million random instructions over sixteen
// registers and a 512 KiB memory: dispatch through a switch, dependent
// loads and stores, data-dependent branches — the same kind of work as
// the layers under test, and slowed by a busy sibling thread or a
// thrashed cache about as much as they are.
func refKernel() {
	var r [16]uint64
	pc := 0
	for i := 0; i < 4_000_000; i++ {
		ins := refCode[pc&4095]
		d, s, t := (ins>>3)&15, (ins>>7)&15, (ins>>11)&15
		switch ins & 7 {
		case 0:
			r[d] = r[s] + r[t]
		case 1:
			r[d] = r[s] ^ (r[t] << 3)
		case 2:
			r[d] = refMem[(r[s]+uint64(ins>>16))&0xffff]
		case 3:
			refMem[(r[s]+uint64(ins>>16))&0xffff] = r[t]
		case 4:
			if r[s]&1 == 0 {
				pc += int(ins >> 28)
			}
		case 5:
			r[d] = r[s]*6364136223846793005 + 1442695040888963407
		case 6:
			r[d] = r[s] - r[t]
		default:
			r[d] = uint64(ins)
		}
		pc++
	}
	refSink = r[0] + r[5]
}

// calibrator collects refKernel timings and keeps account of the time it
// took, so the caller can leave that time out of its own spans.
type calibrator struct {
	samples []float64 // milliseconds per kernel run
	wall    time.Duration
	cpu     float64
}

// run times n kernel runs.
func (c *calibrator) run(n int) {
	cpu0, start := cpuSeconds(), time.Now()
	last := start
	for i := 0; i < n; i++ {
		refKernel()
		now := time.Now()
		c.samples = append(c.samples, ms(now.Sub(last)))
		last = now
	}
	c.wall += last.Sub(start)
	c.cpu += cpuSeconds() - cpu0
}

// indexSince is the host-speed index over the samples taken since mark
// (a previous len(c.samples)): 1 on the undisturbed reference host,
// higher when the host ran slower.
func (c *calibrator) indexSince(mark int) float64 {
	if mark >= len(c.samples) {
		return 1
	}
	return mean(c.samples[mark:]) / refKernelMS
}
