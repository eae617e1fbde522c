package main

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	// The reported tail is the highest percentile with at least ten
	// samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},   // the median has 9 beyond
		{20, 50},  // ... and 10 with 20 samples
		{40, 75},  // p75 has 10 beyond
		{99, 75},  // p90 has 9 beyond
		{100, 90}, // p90 has 10 beyond
		{199, 90},
		{200, 95},
		{1000, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.submit", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "campaign.Engine.Run", Start: 10, End: 90},
		// Two workers: overlapping children cover 20..70 once.
		{ID: 2, Parent: 1, Name: "core.RunSystem", Start: 20, End: 60},
		{ID: 3, Parent: 1, Name: "core.RunSystem", Start: 30, End: 70},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "campaign.DiskCache.Put", Start: 85, End: 95},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 20, 1: 25, 2: 40, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	shares := layerSelfShares(spans, func(s span) bool { return s.Name == "bench.submit" })
	total := 20.0 + 25 + 40 + 40 + 10
	for layer, want := range map[string]float64{"bench": 20 / total, "campaign": 35 / total, "core": 80 / total} {
		if !near(shares[layer], want) {
			t.Errorf("share of %s = %g, want %g", layer, shares[layer], want)
		}
	}
}

func TestSelfSharesSkipOtherRoots(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.submit", Start: 0, End: 10},
		{ID: 1, Parent: -1, Name: "bench.check", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "campaign.journal_replay", Start: 10, End: 50},
	}
	shares := layerSelfShares(spans, func(s span) bool { return s.Name == "bench.submit" })
	if !near(shares["bench"], 1) || shares["campaign"] != 0 {
		t.Errorf("shares = %v, want only the submit span", shares)
	}
}

func TestWorkerIdleFrac(t *testing.T) {
	for _, tc := range []struct {
		busy    time.Duration
		workers int
		wall    time.Duration
		want    float64
	}{
		{15 * time.Second, 2, 10 * time.Second, 0.25},
		{20 * time.Second, 2, 10 * time.Second, 0},
		{0, 2, 10 * time.Second, 1},
		{25 * time.Second, 2, 10 * time.Second, 0}, // clamped
		{time.Second, 2, 0, 0},
	} {
		if got := workerIdleFrac(tc.busy, tc.workers, tc.wall); !near(got, tc.want) {
			t.Errorf("workerIdleFrac(%v, %d, %v) = %g, want %g", tc.busy, tc.workers, tc.wall, got, tc.want)
		}
	}
}

func TestTracedSubmissionRecordsLayerSpans(t *testing.T) {
	b := &bench{ctx: context.Background(), seed: 3, workers: 2, dir: t.TempDir(), tr: newTracer()}
	spec := campaign.Spec{
		Name:      "tiny",
		Kinds:     []core.Kind{core.KindNoDMR, core.KindReunion},
		Workloads: []string{"apache"},
		Seeds:     []uint64{3},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sub := submission{name: spec.Name, sc: campaign.Scale{Warmup: 2_000, Measure: 4_000, Timeslice: 1_000}, spec: spec, jobs: jobs}
	dc, err := campaign.NewDiskCache(b.scratch("cache"))
	if err != nil {
		t.Fatal(err)
	}
	res := b.submit(sub, b.wrap(dc), "p0")
	if res.err != nil {
		t.Fatal(res.err)
	}
	var ps passStats
	if err := ps.record(sub, res); err != nil {
		t.Fatal(err)
	}
	b.checkSubmission(&ps, res, "p0")
	if ps.failed != 0 {
		t.Fatalf("checks failed: %v", ps.errs)
	}
	if ps.misses != len(jobs) || len(b.cacheT.puts) != len(jobs) || len(ps.jobTimes) != len(jobs) {
		t.Fatalf("misses %d, puts %d, job times %d; want %d each", ps.misses, len(b.cacheT.puts), len(ps.jobTimes), len(jobs))
	}
	count := map[string]int{}
	for _, s := range b.tr.snapshot() {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for name, want := range map[string]int{
		"bench.submit": 1, "campaign.Engine.Run": 1, "campaign.Summarize": 1,
		"campaign.DiskCache.Get": len(jobs), "campaign.DiskCache.Put": len(jobs), "core.RunSystem": len(jobs),
	} {
		if count[name] != want {
			t.Errorf("%d %s spans, want %d", count[name], name, want)
		}
	}
}
