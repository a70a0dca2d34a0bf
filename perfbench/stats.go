package main

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail figure resting on fewer is noise.
const minBeyond = 10

// quantile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond
// it. The median (q = 0.5) is reported for any non-empty sample. It
// sorts samples in place.
func quantile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return samples[rank-1], q <= 0.5 || n-rank >= minBeyond
}

// pct returns the q-quantile of samples, or 0 when too few samples lie
// beyond it to report it.
func pct(samples []float64, q float64) float64 {
	v, ok := quantile(samples, q)
	if !ok {
		return 0
	}
	return v
}

// median returns the median of samples (0 for none).
func median(samples []float64) float64 {
	v, _ := quantile(samples, 0.5)
	return v
}

// tailLadder is the set of percentiles tail chooses from, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, with its value. With fewer than
// 2*minBeyond samples that is the median.
func tail(samples []float64) (q, v float64) {
	for _, q := range tailLadder {
		if v, ok := quantile(samples, q); ok {
			return q, v
		}
	}
	return 0.5, median(samples)
}

// windowRates splits [0, span) into whole windows of length w and
// returns each window's event rate, where done holds each event's time.
// A window's rate is its events after the first over the time from its
// first event to its last, so it is not rounded to a whole number of
// events per window. With fewer than two usable windows it returns the
// mean rate over span alone.
func windowRates(done []time.Duration, span, w time.Duration) []float64 {
	n := int(span / w)
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	count := make([]int, n)
	for _, d := range done {
		k := int(d / w)
		if d < 0 || k >= n {
			continue
		}
		if count[k] == 0 || d < first[k] {
			first[k] = d
		}
		last[k] = max(last[k], d)
		count[k]++
	}
	var rates []float64
	for k := range n {
		if count[k] > 1 && last[k] > first[k] {
			rates = append(rates, float64(count[k]-1)/(last[k]-first[k]).Seconds())
		}
	}
	if len(rates) < 2 {
		return []float64{float64(len(done)) / span.Seconds()}
	}
	return rates
}

// quartiles returns the first quartile, median and third quartile of
// samples by the nearest-rank rule. It sorts samples in place.
func quartiles(samples []float64) [3]float64 {
	var q [3]float64
	for i := range q {
		q[i], _ = quantile(samples, 0.25*float64(i+1))
	}
	return q
}

// another reports whether a phase that began at start and has run n
// whole units (passes, drains) should start one more: it should when,
// at the mean unit length so far, the next unit would end less than
// half a unit past budget. So a phase ends about budget after it began.
func another(start time.Time, n int, budget time.Duration) bool {
	if n == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*n) < budget
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// cpuTime returns the CPU time (user + system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
