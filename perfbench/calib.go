package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// On the shared 2-core host this benchmark was built on, a virtual
// CPU's speed flips between two levels — a fixed kernel takes ≈110 µs
// in one and 150–230 µs in the other — from one fraction of a second
// to the next, on either CPU, and the share of time spent in the slow
// level drifts over minutes. Raw times of the same code taken minutes
// apart therefore differ by more than any useful regression bound.
// Every end-to-end time the benchmark reports is scaled to a reference
// host speed instead: the benchmark times a fixed kernel of its own
// (complex128 matrix products on 24×24 matrices, which fit in L1 like
// the program's Jacobi and GEMM working sets) many times during the
// run, and multiplies an operation's time by the mean of
// calNominalNS / (kernel time) over the calibrations nearest to it in
// time — the host's mean speed around the operation relative to the
// reference. The mean and not the median: an operation's time
// averages the two speed levels over its duration, and a median of a
// two-level sample jumps from one level to the other. The kernel is
// this file's code, not the program's, so a change to the program
// moves the scaled times and leaves the kernel alone. This is not
// CPU-time normalisation, which an earlier version of this benchmark
// tried without gain: CPU time stretches with the host's slowdown,
// the kernel's time measures it. Every run prints its calibration and
// its raw times beside the scaled ones.

// calNominalNS is the calibration kernel's time at the reference speed:
// a round figure within the range it reads on a 2-core Intel Xeon host
// (KVM guest). Runs are compared through it, so only its being fixed
// matters.
const calNominalNS = 160e3

// calChunks is how many kernel repetitions one calibration takes the
// median of; one repetition takes 0.1–0.25 ms.
const calChunks = 5

var calA, calB, calC [24][24]complex128

func init() {
	for i := range calA {
		for j := range calA[i] {
			calA[i][j] = complex(1/float64(i+j+1), 0.01*float64(i-j))
			calB[i][j] = complex(0.02*float64(j), 1/float64(i+2*j+1))
		}
	}
}

// calChunk times four 24×24 complex matrix products of the same fixed
// inputs, so every chunk does the same arithmetic on the same values.
func calChunk() float64 {
	t0 := time.Now()
	for r := 0; r < 4; r++ {
		for i := range calA {
			for j := range calB {
				var s complex128
				for k := range calA {
					s += calA[i][k] * calB[k][j]
				}
				calC[i][j] = s
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds())
}

// calibrate returns the median kernel time of calChunks repetitions
// in nanoseconds.
func calibrate() float64 {
	xs := make([]float64, calChunks)
	for i := range xs {
		xs[i] = calChunk()
	}
	return median(xs)
}

// speedFactor converts a time measured while the kernel took calNS to
// the reference speed.
func speedFactor(calNS float64) float64 { return calNominalNS / calNS }

// calSample is one calibration taken at a moment of a run.
type calSample struct {
	at time.Time
	ns float64
}

// factorAt returns the speed factor at t: the mean of speedFactor over
// the n calibrations nearest to t (samples sorted by time; all of them
// when there are fewer). With no samples it returns NaN, which makes
// the run's metrics non-finite and the run not correct.
func factorAt(samples []calSample, t time.Time, n int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	// lo..hi is a window of nearest samples grown outward from t.
	hi := sort.Search(len(samples), func(k int) bool { return !samples[k].at.Before(t) })
	lo := hi
	for hi-lo < n && (lo > 0 || hi < len(samples)) {
		switch {
		case lo == 0:
			hi++
		case hi == len(samples):
			lo--
		case t.Sub(samples[lo-1].at) <= samples[hi].at.Sub(t):
			lo--
		default:
			hi++
		}
	}
	var f float64
	for _, s := range samples[lo:hi] {
		f += speedFactor(s.ns)
	}
	return f / float64(hi-lo)
}

// idleCalibrator calibrates every calEvery while no request is in
// flight, for the open-loop workloads: the server is then idle, so the
// kernel competes only with the host and not with the request it is
// there to scale. A calibration during which a request was dispatched
// is discarded. The server's threads run on any of the process's CPUs,
// whose speeds change independently of each other, so the calibrations
// take turns over those CPUs.
type idleCalibrator struct {
	inflight, dispatched atomic.Int64
	samples              []calSample // written by the calibrator goroutine until halt
	stop, done           chan struct{}
}

const calEvery = 40 * time.Millisecond

func startIdleCalibrator() *idleCalibrator {
	c := &idleCalibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		// The thread goes back to the runtime's pool with its CPU set
		// restored: were a locked thread to exit instead, and were it the
		// one that started beamserve, the server would be killed.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		orig, err := getAffinity()
		var cpus []int
		if err == nil {
			cpus = orig.cpus()
			defer setAffinity(orig) // should this fail, the thread is only less free to move
		}
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for k := 0; ; {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			if c.inflight.Load() != 0 {
				continue
			}
			if len(cpus) > 1 {
				var one cpuMask
				one.set(cpus[k%len(cpus)])
				k++
				if setAffinity(one) != nil {
					cpus = nil
				}
			}
			d0 := c.dispatched.Load()
			at := time.Now()
			ns := calibrate()
			if c.inflight.Load() == 0 && c.dispatched.Load() == d0 {
				c.samples = append(c.samples, calSample{at, ns})
			}
		}
	}()
	return c
}

// cpuMask is a CPU set of sched_setaffinity(2).
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

func (m cpuMask) cpus() []int {
	var out []int
	for cpu := 0; cpu < 64*len(m); cpu++ {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			out = append(out, cpu)
		}
	}
	return out
}

// getAffinity and setAffinity read and set the calling thread's CPU set.
func getAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

func setAffinity(m cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// halt stops the calibrator and returns its samples in time order.
func (c *idleCalibrator) halt() []calSample {
	close(c.stop)
	<-c.done
	return c.samples
}

// printScaling prints a run's calibration and its unscaled figures,
// so every scaled metric can be traced back to what the clock read.
func printScaling(cal []calSample, rawOpsPerS, rawP50, rawP90 float64) {
	ns := make([]float64, len(cal))
	for k, c := range cal {
		ns[k] = c.ns
	}
	f := factorAt(cal, time.Time{}, len(cal))
	fmt.Printf("scaling: %d calibrations, %.1f–%.1f us, median %.1f us (reference %.0f us); mean speed factor %.4f; unscaled ops_per_s %.6g, p50 %.6g ms, p90 %.6g ms\n",
		len(cal), percentile(ns, 0)/1e3, percentile(ns, 100)/1e3, median(ns)/1e3, calNominalNS/1e3, f, rawOpsPerS, rawP50, rawP90)
}
