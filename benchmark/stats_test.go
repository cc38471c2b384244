package main

import (
	"math"
	"testing"
	"time"

	"github.com/glign/glign/internal/telemetry"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4): the rule the accepting driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1, 1e-12) || !near(q3, c.q3, 1e-12) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1, 1e-12) {
		t.Errorf("relSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The guide's rule: report the highest percentile with at least ten samples
// beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{10000, 99.9}, {9999, 99}, {1024, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {40, 75}, {39, 50},
	} {
		if got := supportedPercentile(c.samples); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestCV(t *testing.T) {
	if got := cv([]float64{5, 5, 5}); got != 0 {
		t.Errorf("cv of a constant = %v, want 0", got)
	}
	if got := cv([]float64{2, 4}); !near(got, math.Sqrt2/3, 1e-12) {
		t.Errorf("cv(2,4) = %v, want sqrt(2)/3", got)
	}
	if got := cv([]float64{3}); got != 0 {
		t.Errorf("cv of one value = %v, want 0", got)
	}
}

// A request sent late is still timed from when it was due.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	due, done := 10*time.Millisecond, 25*time.Millisecond
	if got := openLoopLatencyMs(due, done); got != 15 {
		t.Errorf("latency = %v ms, want 15 (done - due, whatever the send time)", got)
	}
}

// One disturbed rep must not own the tail the way it does in the pooled
// sample.
func TestGroupedPercentileIsRobustToOneSlowGroup(t *testing.T) {
	steady := func(v float64) []float64 {
		g := make([]float64, 100)
		for i := range g {
			g[i] = v
		}
		return g
	}
	groups := [][]float64{steady(10), steady(10), steady(10), steady(10), steady(30)}
	if got := groupedPercentile(groups, 99); got != 10 {
		t.Errorf("grouped p99 = %v, want 10", got)
	}
	var pooled []float64
	for _, g := range groups {
		pooled = append(pooled, g...)
	}
	if got := percentile(pooled, 99); got != 30 {
		t.Errorf("pooled p99 = %v, want 30 (the disturbed group)", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{ID: 1, Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{ID: 2, Name: "b", StartNs: 30, EndNs: 60, Parent: 0},  // overlaps a by 10
		{ID: 3, Name: "c", StartNs: 90, EndNs: 120, Parent: 0}, // runs past the parent
		{ID: 4, Name: "leaf", StartNs: 12, EndNs: 20, Parent: 1},
	}
	self := selfTimes(spans)
	// Covered: [10,60) and [90,100) = 60 of 100.
	if self[0] != 40 {
		t.Errorf("root self time = %d, want 40", self[0])
	}
	if self[1] != 22 {
		t.Errorf("a self time = %d, want 30-8", self[1])
	}
	if self[4] != 8 {
		t.Errorf("leaf self time = %d, want its whole duration", self[4])
	}
	dur, selfBy := sumByName(spans)
	if dur["b"] != 30 || selfBy["b"] != 30 {
		t.Errorf("b: duration %d self %d, want 30 and 30", dur["b"], selfBy["b"])
	}
}

func TestBucketHistogramHelpers(t *testing.T) {
	before := []telemetry.HistBucket{{Lo: 1, Hi: 1, Count: 5}, {Lo: 4, Hi: 7, Count: 2}}
	after := []telemetry.HistBucket{{Lo: 1, Hi: 1, Count: 5}, {Lo: 4, Hi: 7, Count: 12}, {Lo: 8, Hi: 15, Count: 10}}
	d := subtractBuckets(after, before)
	if len(d) != 2 || d[0].Count != 10 || d[1].Count != 10 {
		t.Fatalf("delta = %+v, want ten in [4,7] and ten in [8,15]", d)
	}
	if got := bucketPercentile(d, 50); got != 7 {
		t.Errorf("p50 = %v, want the top of the first bucket", got)
	}
	if got := bucketPercentile(d, 100); got != 15 {
		t.Errorf("p100 = %v, want 15", got)
	}
	if got := bucketPercentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// Three reps of one buffer of five queries in two batches: the quiet rep
// takes every segment from the rep that was fastest in it, and a rep that
// groups the queries differently cannot be matched.
func TestQuietRunKeepsTheShortestObservationOfEverySegment(t *testing.T) {
	var q quietRun
	for _, rep := range []struct {
		done []float64
		wall float64
	}{
		{[]float64{2, 5, 2, 5, 5}, 5.5}, // segments 2, 3, 0.5
		{[]float64{1, 5, 1, 5, 5}, 5.1}, // 1, 4, 0.1
		{[]float64{3, 5, 3, 5, 5}, 6},   // 3, 2, 1
	} {
		if !q.observe(rep.done, rep.wall) {
			t.Fatalf("rep %v was refused", rep.done)
		}
	}
	if got := q.wall(); !near(got, 1+2+0.1, 1e-12) {
		t.Errorf("quiet wall = %v, want 1 + 2 + 0.1", got)
	}
	lat := q.latenciesMs()
	for i, want := range []float64{1000, 3000, 1000, 3000, 3000} {
		if !near(lat[i], want, 1e-9) {
			t.Errorf("query %d completes at %v ms, want %v", i, lat[i], want)
		}
	}
	if q.observe([]float64{1, 1, 1, 5, 5}, 5) {
		t.Error("a rep with other batches was accepted")
	}
	if q.reps != 3 || !near(q.wall(), 3.1, 1e-12) {
		t.Errorf("after the refused rep: %d reps, wall %v; want 3 and 3.1", q.reps, q.wall())
	}
}
