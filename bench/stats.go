package main

import (
	"math"
	"slices"
	"syscall"
)

// quantileNs returns the q-quantile of nanosecond samples. The clock
// truncates to whole nanoseconds, so a sample v stands for [v, v+1): within a
// run of equal samples the rank is interpolated, which keeps a sub-microsecond
// median from collapsing onto one of a handful of integers. Sorts in place.
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	rank := q * float64(len(ns))
	i := int(rank)
	if i >= len(ns) {
		i = len(ns) - 1
	}
	v := ns[i]
	lo, _ := slices.BinarySearch(ns, v)
	hi, _ := slices.BinarySearch(ns, v+1)
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the exclusive method) gives them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// betterQuartile is the value a quarter of the samples beat: the third
// quartile when higher is better, the first when lower is. Interference on a
// shared box only ever makes an epoch worse, never better, so the better
// quartile follows the program where the median follows the neighbours —
// across repeated runs of one commit it was the steadier of the two.
func betterQuartile(xs []float64, higher bool) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	q1, q3 := quartiles(xs)
	if higher {
		return q3
	}
	return q1
}

// cpuNs is the process's user+system CPU time so far. Client and server
// share the process, so a delta over an interval is the whole path's cost.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
