package main

import (
	"math"
	"sort"
	"time"
)

// The calibration kernel is frozen: it imports no repository code, and
// any change to it, to its input or to kNominalMS is a benchmark change.
// It is a brute-force ε-count over kernelPoints flat d=8 points — the
// same memory and ALU shape as the join's inner loop, small enough to
// stay in cache — so it slows down with the host the way the server does.
const (
	kernelPoints = 2000
	kernelDims   = 8
	kernelEps    = 0.35
	// kernelPairs is the kernel's answer; a different count means the
	// kernel did not run as written.
	kernelPairs = 870
	// kNominalMS is the kernel's time on a nominal-speed host. Every
	// calibrated timing is raw × kNominalMS / K_nearby.
	kNominalMS = 20.0
	// calibEvery is the harness's own kernel schedule between operations.
	calibEvery = 400 * time.Millisecond
	// calibWindow and minWindowSamples pick the kernel samples an
	// operation is calibrated against; see nearby.
	calibWindow      = 5 * time.Second
	minWindowSamples = 8
	// maxServerCPUFrac fails a run whose daemons used more than this share
	// of the kernel windows' wall time: background server work would slow
	// the kernel and make the program look faster than it is.
	maxServerCPUFrac = 0.25
)

var kernelData = func() []float64 {
	pts := make([]float64, kernelPoints*kernelDims)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range pts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pts[i] = float64(x>>11) / (1 << 53)
	}
	return pts
}()

// kernel runs the calibration workload once and returns its pair count.
func kernel() int {
	pts := kernelData
	epsSq := kernelEps * kernelEps
	n := 0
	for i := 0; i < kernelPoints; i++ {
		a := pts[i*kernelDims : i*kernelDims+kernelDims : i*kernelDims+kernelDims]
		for j := i + 1; j < kernelPoints; j++ {
			b := pts[j*kernelDims : j*kernelDims+kernelDims : j*kernelDims+kernelDims]
			var s float64
			for d := 0; d < kernelDims; d++ {
				t := a[d] - b[d]
				s += t * t
			}
			if s <= epsSq {
				n++
			}
		}
	}
	return n
}

// kSample is one kernel run: when it ran, how long it took, and how much
// CPU the daemons used meanwhile.
type kSample struct {
	at        time.Time
	ms        float64 // mean kernel time per CPU
	wall      time.Duration
	serverCPU time.Duration
}

// calibrator owns the kernel schedule of one run and converts raw
// timings into nominal-host timings.
type calibrator struct {
	samples []kSample
	last    time.Time
	cpu     func() time.Duration // summed utime+stime of the watched daemons
	bad     int                  // kernel runs that returned a wrong count
}

func newCalibrator(cpu func() time.Duration) *calibrator {
	return &calibrator{cpu: cpu}
}

// run takes one calibration sample now: the kernel once on each CPU the
// benchmark may use, pinned there, averaged. The CPUs of this kind of
// host slow down independently, and a request may be served on any of
// them.
func (c *calibrator) run() {
	cpu0 := c.cpu()
	t0 := time.Now()
	var sum time.Duration
	cpus := pinnable()
	for _, cpu := range cpus {
		sum += onCPU(cpu, func() time.Duration {
			k0 := time.Now()
			if kernel() != kernelPairs {
				c.bad++
			}
			return time.Since(k0)
		})
	}
	el := time.Since(t0)
	c.samples = append(c.samples, kSample{
		at: t0.Add(el / 2), ms: float64(sum.Nanoseconds()) / 1e6 / float64(len(cpus)), serverCPU: c.cpu() - cpu0,
		wall: el,
	})
	c.last = time.Now()
}

// maybe runs the kernel when the schedule says it is due.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.run()
	}
}

// nearby is K_nearby for an operation that ran over [t0,t1]: the mean
// kernel time over the samples within calibWindow of it. The host's
// speed drifts over tens of seconds but one kernel run also jitters from
// run to run, so a window of samples tracks the drift without the jitter.
func (c *calibrator) nearby(t0, t1 time.Time) float64 {
	n := len(c.samples)
	if n == 0 {
		return kNominalMS
	}
	lo := sort.Search(n, func(k int) bool { return !c.samples[k].at.Before(t0.Add(-calibWindow)) })
	hi := sort.Search(n, func(k int) bool { return c.samples[k].at.After(t1.Add(calibWindow)) })
	// Too few samples in the window (the start or end of a run): take the
	// nearest minWindowSamples instead.
	for hi-lo < minWindowSamples && (lo > 0 || hi < n) {
		if lo > 0 {
			lo--
		}
		if hi < n && hi-lo < minWindowSamples {
			hi++
		}
	}
	var sum float64
	for _, s := range c.samples[lo:hi] {
		sum += s.ms
	}
	return sum / float64(hi-lo)
}

// calibrate converts a raw duration measured over [t0,t1] to nominal-host
// milliseconds.
func (c *calibrator) calibrate(raw time.Duration, t0, t1 time.Time) float64 {
	return float64(raw.Nanoseconds()) / 1e6 * kNominalMS / c.nearby(t0, t1)
}

// stats summarises the kernel samples: median ms, spread as the
// interquartile range over the median, and the daemons' CPU share of
// the kernel windows.
func (c *calibrator) stats() (medianMS, spread, serverFrac float64) {
	ms := make([]float64, len(c.samples))
	var wall, srv time.Duration
	for i, s := range c.samples {
		ms[i] = s.ms
		wall += s.wall
		srv += s.serverCPU
	}
	medianMS = quantile(ms, 0.5)
	if medianMS > 0 {
		spread = (quantile(ms, 0.75) - quantile(ms, 0.25)) / medianMS
	}
	if wall > 0 {
		serverFrac = float64(srv) / float64(wall)
	}
	return
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
