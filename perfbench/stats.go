package main

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the nearest-rank q-quantile of xs (xs is sorted in
// place). The benchmark only asks for a quantile when at least ten
// samples lie beyond it; see hasTail.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// hasTail reports whether n samples leave at least ten beyond the
// q-quantile, the floor below which a percentile is not reported.
func hasTail(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts durations to float microseconds with full precision.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// sample is one answered request of the closed loop.
type sample struct {
	end time.Time // when the response arrived
	lat time.Duration
	get bool
	ok  bool
}

// maxWindows bounds how many equal time windows a run's samples are
// split into; the end-to-end figures are medians over windows, so a
// burst of host noise in one window does not move them. Each window
// averages windowSamples samples, enough for a p99 with ten beyond it.
const (
	maxWindows    = 20
	windowSamples = 2000
)

type windows struct {
	span time.Duration // window length
	ws   [][]sample
}

// splitWindows assigns samples to equal windows of [start, start+d) by
// completion time.
func splitWindows(ss []sample, start time.Time, d time.Duration) windows {
	n := max(1, min(maxWindows, len(ss)/windowSamples))
	w := windows{span: d / time.Duration(n), ws: make([][]sample, n)}
	for _, s := range ss {
		i := int(int64(s.end.Sub(start)) * int64(n) / int64(d))
		i = max(0, min(i, n-1))
		w.ws[i] = append(w.ws[i], s)
	}
	return w
}

// rate is the median over windows of acknowledged requests per second.
func (w windows) rate() float64 {
	var rs []float64
	for _, ws := range w.ws {
		ok := 0
		for _, s := range ws {
			if s.ok {
				ok++
			}
		}
		rs = append(rs, float64(ok)/w.span.Seconds())
	}
	return median(rs)
}

// latency is the median over windows of each window's q-quantile
// latency in microseconds, over windows with ten samples beyond it.
// A run too short for that (the self-tests' tiny shapes) falls back to
// the quantile over all samples.
func (w windows) latency(q float64) float64 {
	var qs, all []float64
	for _, ws := range w.ws {
		us := make([]float64, len(ws))
		for i, s := range ws {
			us[i] = float64(s.lat.Nanoseconds()) / 1e3
		}
		all = append(all, us...)
		if hasTail(len(us), q) {
			qs = append(qs, quantile(us, q))
		}
	}
	if len(qs) == 0 {
		return quantile(all, q)
	}
	return median(qs)
}
