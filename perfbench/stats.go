package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. Unlike an interpolating estimator it always returns an observed
// sample, so a failed operation recorded as +Inf shows up as +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile
// among n sorted samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile's position. A tail percentile is only reported when
// at least ten samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// minSamplesFor is the smallest sample count that leaves at least
// `tail` samples beyond the p-th percentile.
func minSamplesFor(p float64, tail int) int {
	n := 1
	for beyond(n, p) < tail {
		n++
	}
	return n
}

// poissonSchedule returns the due offsets of a seeded Poisson arrival
// process with the given rate over [0, window), conditioned on its
// expected count n = round(rate·window): given the count, Poisson
// arrival times are the order statistics of n uniform draws, obtained
// here as normalized partial sums of n+1 exponential gaps. Fixing the
// count keeps the offered load of every run the same while the
// inter-arrival pattern still varies with the seed.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	if n <= 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	due := make([]time.Duration, n)
	var acc float64
	for i := 0; i < n; i++ {
		acc += gaps[i]
		due[i] = time.Duration(acc / total * float64(window))
	}
	return due
}

// littleWait is Little's law solved for the waiting time: a queue
// holding meanQueued items on average while items leave at throughput
// per second keeps each one waiting meanQueued/throughput seconds.
// Returns milliseconds; 0 when nothing flowed.
func littleWait(meanQueued, throughput float64) float64 {
	if throughput <= 0 {
		return 0
	}
	return meanQueued / throughput * 1e3
}

// lagShift is how far the generator's wake-up lag moves the p-th
// percentile of latencies timed from the due time: that percentile
// minus the same percentile with each request's lag taken out. NaN when
// the percentile is not finite (a failed request there).
func lagShift(lat, lags []float64, p float64) float64 {
	sent := make([]float64, len(lat))
	for i := range lat {
		sent[i] = lat[i] - lags[i]
	}
	return percentile(lat, p) - percentile(sent, p)
}

// clusterQuotas splits n draws over the cluster-count classes K = 1,
// 2, 3 and K ≥ 4 of K = max(1, Poisson(rate)) in proportion to their
// probabilities, rounding by largest remainder so the quotas sum to n.
func clusterQuotas(rate float64, n int) [4]int {
	e := math.Exp(-rate)
	p := [4]float64{e * (1 + rate), e * rate * rate / 2, e * rate * rate * rate / 6}
	p[3] = 1 - p[0] - p[1] - p[2]
	var q [4]int
	left := n
	for k := range p {
		q[k] = int(p[k] * float64(n))
		left -= q[k]
	}
	for ; left > 0; left-- {
		best, rem := 0, math.Inf(-1)
		for k := range p {
			if r := p[k]*float64(n) - float64(q[k]); r > rem {
				best, rem = k, r
			}
		}
		q[best]++
	}
	return q
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
