package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile's rank, so that no percentile rests on a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs:
// the value at rank ceil(p/100·n) of the sorted samples. It fails unless
// at least minBeyond samples rank above it. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d",
			p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// layerPercentile is percentile for per-layer figures, which have no
// bound: too few samples report 0 instead of failing the run.
func layerPercentile(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// segmentPercentile is the median, over the segments of a run, of each
// segment's nearest-rank p-th percentile; every segment must pass the
// ten-beyond rule on its own. A burst of host noise then moves the segments
// it falls in, not the run's figure.
func segmentPercentile(segs [][]float64, p float64) (float64, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("p%v: no samples", p)
	}
	vals := make([]float64, len(segs))
	for i, s := range segs {
		v, err := percentile(s, p)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return median(vals), nil
}

// chunks splits samples in time order into runs of consecutive samples just
// long enough for a p-th percentile with ten samples beyond it (1000 for a
// p99, 100 for a p90), rounded up to a multiple of unit; a short tail joins
// the last chunk. Samples that cycle through unit kinds in rounds then
// give every chunk the same mix of kinds.
func chunks(xs []float64, p float64, unit int) [][]float64 {
	size := int(math.Ceil(minBeyond / (1 - p/100)))
	size = (size + unit - 1) / unit * unit
	n := len(xs) / size
	if n <= 1 {
		return [][]float64{xs}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = xs[i*size : (i+1)*size]
	}
	out[n-1] = xs[(n-1)*size:]
	return out
}

// latencyMetrics fills the loadgen hit and cold latency metrics from
// per-segment samples in milliseconds. They are per-layer figures: a
// percentile some segment has too few samples for reports 0.
func latencyMetrics(l map[string]float64, hit, cold [][]float64) {
	for _, m := range []struct {
		name string
		segs [][]float64
		p    float64
	}{
		{"loadgen.hit_p50_ms", hit, 50}, {"loadgen.hit_p90_ms", hit, 90},
		{"loadgen.cold_p50_ms", cold, 50}, {"loadgen.cold_p90_ms", cold, 90},
	} {
		l[m.name], _ = segmentPercentile(m.segs, m.p)
	}
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
