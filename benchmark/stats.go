package main

import (
	"slices"
	"syscall"
	"time"
)

// quantile reads the q-quantile of an ascending slice by nearest rank;
// 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// medianOf returns the median of v (mean of the middle pair when even)
// without reordering it; 0 when empty.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// iqrShare is the distance between the first and third quartile of v as
// a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so the
// spread printed here is the one the contract gates.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := medianOf(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / med
}

// ratio is a/b, or 0 when b is 0: a per-message share of a window in
// which nothing was delivered (or a layer that did not run) reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns float64) float64 { return ns / 1e3 }

// usage is the process-wide resource reading taken at the edges of a
// repetition.
type usage struct {
	cpu    time.Duration // user + system
	ctxsw  int64         // voluntary context switches
	maxRSS int64         // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), ctxsw: ru.Nvcsw, maxRSS: ru.Maxrss}
}
