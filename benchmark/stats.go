package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"github.com/glign/glign/internal/stats"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method) — the
// rule the accepting driver applies to ten runs — so a spread printed here
// is the spread the driver will compute. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of their median:
// the steadiness figure BENCHMARK.json's bounds are judged against.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile is the tail every workload's latency is gated on.
const tailPercentile = 90

// tailPercentiles are the candidates of supportedPercentile, highest first,
// each with the share of samples beyond it in thousandths.
var tailPercentiles = []struct {
	p        float64
	perMille int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// supportedPercentile applies the reporting rule of the choosing-metrics
// guide: the highest tail percentile that still has at least ten samples
// beyond it. It returns 50 when even p75 is unsupported (fewer than 40
// samples).
func supportedPercentile(samples int) float64 {
	for _, t := range tailPercentiles {
		if samples*t.perMille >= 10*1000 {
			return t.p
		}
	}
	return 50
}

// cv is the coefficient of variation (sample standard deviation over mean)
// of xs — bench.rep_cv, stated beside every timing. 0 for fewer than two
// values.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / m
}

// openLoopLatencyMs is the latency of one open-loop request: completion
// minus the time the request was due to be sent, not the time it was
// actually sent, so a stall that delays later sends is charged to them.
func openLoopLatencyMs(due, done time.Duration) float64 {
	return float64(done-due) / float64(time.Millisecond)
}

// groupedPercentile computes the p-th percentile inside every group and
// returns the median over groups. Groups are timed reps (offline) or equal
// slices of the measured window (serving); taking the median over them keeps
// one disturbed rep from owning the whole tail, which the pooled percentile
// of a few thousand samples would let it do.
func groupedPercentile(groups [][]float64, p float64) float64 {
	return median(slicePercentiles(groups, p))
}

// slicePercentiles is the p-th percentile of every non-empty group.
func slicePercentiles(groups [][]float64, p float64) []float64 {
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, percentile(g, p))
		}
	}
	return per
}

// quietRun collects repeated evaluations of one buffer and keeps, for every
// segment of the evaluation, the shortest time any rep spent in it. A segment
// is the stretch between two consecutive batch completions (a batch and the
// glue before it); the last one is the stretch after the last completion.
// The work of a segment is the same in every rep, and whatever else the host
// runs can only add to its time, so the shortest observation is the closest
// to what the program itself costs. Summed, the segments give the wall of a
// rep no part of which was disturbed: on a shared host that moves by a third
// of what the median rep wall does from run to run (README.md).
type quietRun struct {
	seg   []int     // per query: the segment it completes in
	quiet []float64 // per segment: shortest duration seen, seconds
	reps  int
}

// observe adds one rep, given every query's completion time since the rep
// started and the rep's wall, both in seconds. It reports false, adding
// nothing, when the rep completed the queries in other groups than the first
// rep did: such segments cannot be matched.
func (q *quietRun) observe(done []float64, wall float64) bool {
	ends := sorted(done)
	n := 0
	for i, e := range ends {
		if i == 0 || e != ends[n-1] {
			ends[n] = e
			n++
		}
	}
	ends = ends[:n]
	seg := make([]int, len(done))
	for i, d := range done {
		seg[i] = sort.SearchFloat64s(ends, d)
	}
	dur := make([]float64, n+1)
	prev := 0.0
	for j, e := range ends {
		dur[j] = e - prev
		prev = e
	}
	dur[n] = math.Max(wall-prev, 0)
	if q.reps == 0 {
		q.seg, q.quiet = seg, dur
	} else {
		if !slices.Equal(seg, q.seg) {
			return false
		}
		for j, d := range dur {
			q.quiet[j] = math.Min(q.quiet[j], d)
		}
	}
	q.reps++
	return true
}

// wall is the rep wall with every segment at its quietest, in seconds.
func (q *quietRun) wall() float64 {
	var sum float64
	for _, d := range q.quiet {
		sum += d
	}
	return sum
}

// latenciesMs returns every query's completion time in that quiet rep: all
// queries arrive at its start and a query completes when its segment does.
func (q *quietRun) latenciesMs() []float64 {
	ends := make([]float64, len(q.quiet))
	var sum float64
	for j, d := range q.quiet {
		sum += d
		ends[j] = sum * 1e3
	}
	out := make([]float64, len(q.seg))
	for i, s := range q.seg {
		out[i] = ends[s]
	}
	return out
}
