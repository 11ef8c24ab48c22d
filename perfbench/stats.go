package main

import (
	"math"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It is NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Latency histograms are log-linear: values below 2^subBits ns have a
// bucket each, and every power-of-two range above is cut into 2^subBits
// buckets, so a bucket is never wider than 1/128 of its values. Fixed
// size keeps a run's memory independent of how many requests it times.
const (
	subBits     = 7
	histBuckets = (33 - subBits) << subBits
)

type hist struct {
	n      int64
	counts [histBuckets]uint32
}

func bucketOf(v uint32) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len32(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	m := i&(1<<subBits-1) + 1<<subBits
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d int64) {
	h.counts[bucketOf(clampNs(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolating inside its bucket; NaN
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	pos := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+float64(c) > pos {
			lo, width := bucketRange(i)
			return lo + width*(pos-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	lo, width := bucketRange(histBuckets - 1)
	return lo + width
}

// window is one slice of the measured phase: the operations completed in
// it and their latencies. Metrics are computed per window and reported as
// the median over windows, so a short burst of host noise moves one
// window rather than the run.
type window struct {
	ops         int64
	busyNs      int64 // wall time the window covers
	read, write hist
}

func (w *window) merge(o *window) {
	w.ops += o.ops
	w.read.merge(&o.read)
	w.write.merge(&o.write)
}

// clampNs fits a latency into the histogram's 32-bit range (4.29 s).
func clampNs(d int64) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// residentMiB reads the process's current resident set from procfs, or
// its peak from getrusage where procfs is missing.
func residentMiB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
