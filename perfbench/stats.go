package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the two nearest ranks. xs is sorted in place. An empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, so callers keep their order.
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// windowQuantiles returns the q-quantile of each window of xs, where
// window k is xs[cuts[k-1]:cuts[k]] (the first starts at 0).
func windowQuantiles(xs []float64, cuts []int, q float64) []float64 {
	var out []float64
	from := 0
	for _, to := range cuts {
		out = append(out, quantile(slices.Clone(xs[from:to]), q))
		from = to
	}
	return out
}

// window splits a timed phase into fixed wall-clock windows and keeps
// one rate per window, so a phase reports the median window instead of
// a mean that one scheduler hiccup can drag.
type window struct {
	length time.Duration
	start  time.Time
	ops    int64
	rates  []float64
}

func newWindow(length time.Duration) *window {
	return &window{length: length, start: time.Now()}
}

// add counts n finished ops and closes the window once it has run its
// length. It reports whether a window closed.
func (w *window) add(n int64) bool {
	w.ops += n
	el := time.Since(w.start)
	if el < w.length {
		return false
	}
	w.rates = append(w.rates, float64(w.ops)/el.Seconds())
	w.ops = 0
	w.start = time.Now()
	return true
}

// liveHeapMB forces a collection and reports the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// gcMeter measures the share of the process's busy CPU time the garbage
// collector used over an interval, from the runtime's own CPU-class
// accounting (idle time excluded).
type gcMeter struct{ gc0, busy0 float64 }

func readGC() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func startGCMeter() *gcMeter {
	gc, busy := readGC()
	return &gcMeter{gc0: gc, busy0: busy}
}

// share returns GC CPU over busy CPU since the meter started.
func (m *gcMeter) share() float64 {
	gc, busy := readGC()
	if busy <= m.busy0 {
		return 0
	}
	return (gc - m.gc0) / (busy - m.busy0)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Host-speed calibration. A shared host's speed drifts by tens of
// percent over minutes (steal, neighbours' cache and memory traffic),
// more than any bound a gate could use. Each run therefore interleaves
// its measurement with slices of a fixed reference kernel that uses
// none of the code under test, and reports its times scaled to a host
// on which that kernel runs calRef rounds per second. A change to the
// program cannot move the kernel, so it cannot move the scale.

// calRef is the kernel's rate on the reference host, a 2-vCPU x86-64
// cloud VM with Go 1.24, and calRefGroup the median time of one group
// of calGroup rounds there.
const (
	calRef      = 170_000
	calRefGroup = 80 * time.Microsecond
	calGroup    = 16
)

var (
	calTable = make([]uint64, 1<<15) // 256 KiB, the size of a large rule table
	calSink  uint64
)

// hostSpeed is the host's speed relative to the reference host, from
// one calibration slice. A slower host reads below 1. throughput counts
// every round the slice completed, so time the host took away from the
// process (steal, preemption) lowers it, as it lowers a closed loop's
// rate. typical is from the median group time, which such interruptions
// move as little as they move a median latency.
type hostSpeed struct{ throughput, typical float64 }

// calibrate runs the reference kernel for d. A round allocates a small
// map and slice (so the allocator and collector take part), sorts the
// slice, walks the table with a stride and hashes a block.
func calibrate(d time.Duration) hostSpeed {
	var block [64]byte
	x := uint64(0x9e3779b97f4a7c15)
	var groups []float64
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		g0 := time.Now()
		for k := 0; k < calGroup; k++ {
			m := make(map[uint64]int, 16)
			xs := make([]uint64, 32)
			for i := range xs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				xs[i] = x
				m[x&1023] = i
			}
			slices.Sort(xs)
			for i := 0; i < 256; i++ {
				calSink += calTable[(x+uint64(i)*521)&uint64(len(calTable)-1)]
			}
			block[0] = byte(xs[0])
			h := sha256.Sum256(block[:])
			calSink += uint64(h[0]) + uint64(len(m))
		}
		groups = append(groups, float64(time.Since(g0)))
	}
	rate := float64(len(groups)*calGroup) / time.Since(start).Seconds()
	return hostSpeed{throughput: rate / calRef, typical: float64(calRefGroup) / median(groups)}
}

// calibrated splits a measured phase of length d into calRounds slices
// and runs a calibration slice (cal/calRounds) right after each, so each
// slice's result can be scaled by the speed measured next to it.
func calibrated(d, cal time.Duration, measure func(slice time.Duration)) []hostSpeed {
	const calRounds = 20
	var speeds []hostSpeed
	for k := 0; k < calRounds; k++ {
		measure(d / calRounds)
		speeds = append(speeds, calibrate(cal/calRounds))
	}
	return speeds
}

// atRefRate is the median over rounds of a rate, or of a time that
// counts interruptions like a rate does (wall time per op over a whole
// phase), scaled to the reference host by each round's throughput
// speed. atRefTime scales a median latency by each round's typical
// speed.
func atRefRate(vals []float64, speeds []hostSpeed) float64 {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v / speeds[i].throughput
	}
	return median(xs)
}

func atRefTime(vals []float64, speeds []hostSpeed) float64 {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v * speeds[i].typical
	}
	return median(xs)
}

// speedSummary formats a run's speeds for its notes.
func speedSummary(speeds []hostSpeed) string {
	var tp, ty []float64
	for _, s := range speeds {
		tp, ty = append(tp, s.throughput), append(ty, s.typical)
	}
	return fmt.Sprintf("host speed throughput %.3f (%.3f..%.3f) typical %.3f (%.3f..%.3f)",
		median(tp), slices.Min(tp), slices.Max(tp), median(ty), slices.Min(ty), slices.Max(ty))
}
