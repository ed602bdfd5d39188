package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 4, 25*time.Second)
	b := poissonSchedule(7, 4, 25*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 100 {
		t.Fatalf("got %d arrivals, want rate·window = 100", len(a))
	}
	c := poissonSchedule(8, 4, 25*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	for i, d := range a {
		if d < 0 || d >= 25*time.Second {
			t.Fatalf("arrival %d at %v outside the window", i, d)
		}
		if i > 0 && d < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, d, i-1, a[i-1])
		}
	}
}

func TestPoissonScheduleGapsAreExponential(t *testing.T) {
	// Conditioned on the count, gaps of a Poisson process have mean
	// window/(n+1) and a coefficient of variation near 1.
	due := poissonSchedule(3, 200, 50*time.Second)
	var gaps []float64
	prev := 0.0
	for _, d := range due {
		gaps = append(gaps, d.Seconds()-prev)
		prev = d.Seconds()
	}
	m := mean(gaps)
	var v float64
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	cv := math.Sqrt(v/float64(len(gaps))) / m
	if math.Abs(m-0.005) > 0.0005 || cv < 0.9 || cv > 1.1 {
		t.Fatalf("gap mean %.5f s (want 0.005), cv %.3f (want ≈1)", m, cv)
	}
}

func TestTailSampleRule(t *testing.T) {
	for _, c := range []struct {
		n, beyond90 int
	}{{1, 0}, {10, 1}, {99, 9}, {100, 10}, {101, 10}, {250, 25}} {
		if got := beyond(c.n, 90); got != c.beyond90 {
			t.Errorf("beyond(%d, 90) = %d, want %d", c.n, got, c.beyond90)
		}
	}
	if got := minSamplesFor(90, 10); got != 100 {
		t.Errorf("minSamplesFor(90, 10) = %d, want 100", got)
	}
	if got := minSamplesFor(50, 10); got != 20 {
		t.Errorf("minSamplesFor(50, 10) = %d, want 20", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	withFail := append(append([]float64(nil), xs...), math.Inf(1))
	if got := percentile(withFail, 100); !math.IsInf(got, 1) {
		t.Errorf("a failed operation must count as missing every limit, got %v", got)
	}
}

func TestLittleWait(t *testing.T) {
	// 0.5 requests queued on average while 2.5 requests/s complete:
	// each waits 0.2 s.
	if got := littleWait(0.5, 2.5); math.Abs(got-200) > 1e-9 {
		t.Errorf("littleWait(0.5, 2.5) = %v ms, want 200", got)
	}
	if got := littleWait(3, 0); got != 0 {
		t.Errorf("littleWait with no throughput = %v, want 0", got)
	}
}

func TestLagShift(t *testing.T) {
	lat := make([]float64, 100)
	lags := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	// A few late wake-ups far out in the tail leave p50 and p90 alone.
	for _, i := range []int{97, 98, 99} {
		lags[i] = 5
	}
	for _, p := range []float64{50, 90} {
		if got := lagShift(lat, lags, p); got != 0 {
			t.Fatalf("three tail lags moved p%g by %g", p, got)
		}
	}
	// A lag on every request moves every percentile by that lag.
	for i := range lags {
		lags[i] = 2
	}
	for _, p := range []float64{50, 90} {
		if got := lagShift(lat, lags, p); got != 2 {
			t.Fatalf("uniform 2 ms lag moved p%g by %g, want 2", p, got)
		}
	}
	lat[99] = math.Inf(1)
	if got := lagShift(lat, lags, 100); !math.IsNaN(got) {
		t.Fatalf("shift at a failed request's percentile = %g, want NaN", got)
	}
}

func TestClusterQuotas(t *testing.T) {
	// K = max(1, Poisson(1.8)): P(1) = 0.4628, P(2) = 0.2678,
	// P(3) = 0.1607, P(≥4) = 0.1087.
	if got, want := clusterQuotas(1.8, 210), [4]int{97, 56, 34, 23}; got != want {
		t.Fatalf("quotas for 210 = %v, want %v", got, want)
	}
	for n := 0; n < 50; n++ {
		q := clusterQuotas(1.8, n)
		if q[0]+q[1]+q[2]+q[3] != n {
			t.Fatalf("quotas for %d = %v do not sum to %d", n, q, n)
		}
	}
}

func TestFactorAtNearestSamples(t *testing.T) {
	t0 := time.Unix(0, 0)
	var s []calSample
	for k := 0; k < 30; k++ {
		ns := calNominalNS // reference speed for 20 s, then half speed
		if k >= 20 {
			ns = 2 * calNominalNS
		}
		s = append(s, calSample{t0.Add(time.Duration(k) * time.Second), ns})
	}
	for _, c := range []struct {
		at   time.Duration
		n    int
		want float64
	}{
		{-time.Hour, 9, 1}, {5 * time.Second, 9, 1}, {12500 * time.Millisecond, 9, 1},
		{26 * time.Second, 9, 0.5}, {time.Hour, 9, 0.5},
		// The sample at t and its nearer neighbour: one of each speed.
		{20 * time.Second, 2, 0.75},
	} {
		if got := factorAt(s, t0.Add(c.at), c.n); got != c.want {
			t.Errorf("factorAt(%v, %d) = %v, want %v", c.at, c.n, got, c.want)
		}
	}
	// Fewer samples than asked for: all of them count, by their mean.
	if got, want := factorAt(s[19:22], t0, 9), (1+0.5+0.5)/3; got != want {
		t.Errorf("factorAt over 3 samples = %v, want %v", got, want)
	}
	if got := factorAt(nil, t0, 9); !math.IsNaN(got) {
		t.Errorf("factorAt without samples = %v, want NaN", got)
	}
}

func TestCalibrationKernelIsFixedWork(t *testing.T) {
	calChunk()
	first := calC
	calChunk()
	if calC != first {
		t.Fatal("calibration kernel's result changed between chunks; its work would drift")
	}
}

func TestCPUMask(t *testing.T) {
	var m cpuMask
	for _, c := range []int{0, 3, 64, 130} {
		m.set(c)
	}
	if got := m.cpus(); !reflect.DeepEqual(got, []int{0, 3, 64, 130}) {
		t.Errorf("cpus() = %v", got)
	}
}
