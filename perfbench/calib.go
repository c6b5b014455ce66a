package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by tens of percent
// from minute to minute (other tenants' load on the same cores and caches).
// So every wall-clock end-to-end metric is taken at reference host speed:
// between the timed intervals of a run (rounds, serving segments, set-ups)
// the benchmark runs a fixed calibration kernel — its own code, never the
// program's, so no program change moves it — on as many goroutines as the
// timed work uses, and scales the run's times by refNominal over the
// kernel's median time in that run. A host that runs 20% slower stretches
// both, and the ratio stays. The raw figures are reported beside them in the
// traced run.

// refNominal is the calibration kernel's wall time on a quiet 2-vCPU
// x86-64 host; it only fixes the unit, so calibrated times read close to
// wall times there.
const refNominal = 20 * time.Millisecond

const (
	refLen    = 1 << 18 // indices per pass: 1 MiB, streamed from beyond L2
	refBitLen = 1 << 14 // bits they test: a layer's spike vector
	refPanel  = 1 << 15 // float64s per panel row: 256 KiB
	refPasses = 14      // passes per goroutine
	refChunks = 8       // a pass is split into chunks the goroutines share
)

var (
	refOnce  sync.Once
	refIdx   []int32   // scattered indices into refBits
	refBits  []uint64  // half of them set, at random
	refW     []float64 // a weight panel
	refX     []float64 // an input vector for it
	refDiv   = 32      // a variable, so the division stays a division
	refSinkF float64
	refSinkI int
)

// refRun runs the calibration kernel once — workers x refPasses passes —
// on workers goroutines and returns its wall time. The goroutines take
// chunks of passes from a shared counter, as the simulator's workers take
// images, so a goroutine held up by the host leaves its share to the
// others instead of holding up the end. The kernel mirrors where the simulator spends host time: the chip
// accountant's loop (scattered input indices, an integer division to find
// the word, a bit test whose branch cannot be predicted) and the spiking
// integration's float multiply-adds over a weight panel.
func refRun(workers int) time.Duration {
	refOnce.Do(func() {
		refIdx = make([]int32, refLen)
		refBits = make([]uint64, refBitLen/64)
		refW = make([]float64, refPanel)
		refX = make([]float64, refPanel)
		x := uint64(0x9e3779b97f4a7c15)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		for i := range refIdx {
			refIdx[i] = int32(next() % refBitLen)
		}
		for i := range refBits {
			refBits[i] = next()
		}
		for i := range refW {
			refW[i] = float64(next()>>11) / (1 << 53)
			refX[i] = float64(next()>>11) / (1 << 53)
		}
	})
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var next atomic.Int64
	chunks := int64(workers * refPasses * refChunks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, c := 0.0, 0
			for k := next.Add(1) - 1; k < chunks; k = next.Add(1) - 1 {
				part := int(k % refChunks)
				last := -1
				for _, in := range refIdx[part*refLen/refChunks : (part+1)*refLen/refChunks] {
					word := int(in) / refDiv
					if word != last {
						c++
						last = word
					}
					if refBits[in>>6]>>(in&63)&1 != 0 {
						c += 2
					}
				}
				lo, hi := part*refPanel/refChunks, (part+1)*refPanel/refChunks
				for i, wt := range refW[lo:hi] {
					f += wt * refX[lo+i]
				}
			}
			mu.Lock()
			refSinkF += f
			refSinkI += c
			mu.Unlock()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// speed is a host-speed estimate: the calibration kernel's wall times
// after the timed intervals of one phase of a run.
type speed struct {
	ref []time.Duration
}

// refDuty is the kernel's share of a run's time: after an interval of d,
// sample runs it for d*refDuty (at least once), so the host speed is sampled
// evenly over the run.
const refDuty = 0.1

// sample runs the kernel after an interval of length d and records its
// times.
func (s *speed) sample(workers int, d time.Duration) {
	budget := time.Duration(float64(d) * refDuty)
	for spent := time.Duration(0); spent == 0 || spent < budget; {
		r := refRun(workers)
		s.ref = append(s.ref, r)
		spent += r
	}
}

// median of the recorded kernel times, in ms.
func (s *speed) medianMs() float64 { return durQuantile(s.ref, 0.5, "ms") }

// factor takes a wall time measured next to the recorded kernel times to
// reference host speed: refNominal over their median.
func (s *speed) factor() float64 { return durIn(refNominal, "ms") / s.medianMs() }
