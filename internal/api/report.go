package api

import (
	"fmt"
	"io"
)

// Wall-clock attribution types: where did the campaign's time go?
// The report is computed by campaign.Attribute purely from journal
// events; the types live here because the report crosses the wire —
// GET /v1/campaigns/{id} embeds it and mmmtail renders it.

// WorkerReport is one worker's share of a run.
type WorkerReport struct {
	Worker string `json:"worker"`
	// Jobs counts completions (cache hits are coordinator-local and
	// attributed to no worker).
	Jobs     int `json:"jobs"`
	Failures int `json:"failures"`
	// BusySeconds sums the worker's completed-attempt wall times;
	// BusyPct is that against the run's wall clock — the utilization of
	// a dedicated worker (time not busy was idle or lost to churn).
	BusySeconds float64 `json:"busy_seconds"`
	BusyPct     float64 `json:"busy_pct"`
}

// GroupReport aggregates job seconds per workload x kind group —
// the straggler axis: a group whose p99 dwarfs its p50 is where the
// fleet's tail lives.
type GroupReport struct {
	Group string  `json:"group"`
	Jobs  int     `json:"jobs"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

// CellReport is one straggler: a slowest-N simulated job (a fixed
// cell, or one wave of an adaptive cell).
type CellReport struct {
	Cell    int     `json:"cell"`
	Key     string  `json:"key"`
	Worker  string  `json:"worker,omitempty"`
	Seconds float64 `json:"seconds"`
}

// Report is the wall-clock attribution of one run.
type Report struct {
	Run              string         `json:"run,omitempty"`
	Outcome          string         `json:"outcome"`
	Cells            int            `json:"cells"`
	Merged           int            `json:"merged"`
	CacheHits        int            `json:"cache_hits"`
	CacheHitPct      float64        `json:"cache_hit_pct"`
	WallSeconds      float64        `json:"wall_seconds"`
	BusySeconds      float64        `json:"busy_seconds"`
	Failures         int            `json:"failures"`
	Reassignments    int            `json:"reassignments"`
	HeartbeatsMissed int            `json:"heartbeats_missed"`
	Workers          []WorkerReport `json:"workers,omitempty"`
	Groups           []GroupReport  `json:"groups,omitempty"`
	Stragglers       []CellReport   `json:"stragglers,omitempty"`

	// Adaptive-precision attribution: trials the sequential-stopping
	// planner actually scheduled vs the fixed-batch equivalent (cells
	// x the precision block's MaxTrials — the worst-case budget a
	// fixed design must provision for the same guarantee), and how
	// cells retired. Zero-valued on non-adaptive runs.
	Adaptive        bool    `json:"adaptive,omitempty"`
	TrialsScheduled int     `json:"trials_scheduled,omitempty"`
	TrialsFixed     int     `json:"trials_fixed,omitempty"`
	TrialsSavedPct  float64 `json:"trials_saved_pct,omitempty"`
	CellsRetired    int     `json:"cells_retired,omitempty"`
	CellsCapped     int     `json:"cells_capped,omitempty"`
}

// WriteText renders the report for terminals (mmmtail).
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "run %s: %s — %d/%d cells merged, %d cache hits (%.0f%%), wall %.2fs\n",
		orDash(r.Run), r.Outcome, r.Merged, r.Cells, r.CacheHits, r.CacheHitPct, r.WallSeconds)
	if r.Adaptive {
		fmt.Fprintf(w, "adaptive: %d trials scheduled vs %d fixed-equivalent (%.1f%% saved), %d cells retired on target, %d capped\n",
			r.TrialsScheduled, r.TrialsFixed, r.TrialsSavedPct, r.CellsRetired-r.CellsCapped, r.CellsCapped)
	}
	if r.Failures > 0 || r.Reassignments > 0 || r.HeartbeatsMissed > 0 {
		fmt.Fprintf(w, "churn: %d failed attempts, %d reassignments, %d missed heartbeats\n",
			r.Failures, r.Reassignments, r.HeartbeatsMissed)
	}
	if len(r.Workers) > 0 {
		fmt.Fprintf(w, "workers:\n")
		for _, wr := range r.Workers {
			fmt.Fprintf(w, "  %-16s %4d jobs  busy %8.2fs  util %5.1f%%  failures %d\n",
				wr.Worker, wr.Jobs, wr.BusySeconds, wr.BusyPct, wr.Failures)
		}
	}
	if len(r.Groups) > 0 {
		fmt.Fprintf(w, "job seconds by workload/kind (p50/p95/p99/max):\n")
		for _, g := range r.Groups {
			fmt.Fprintf(w, "  %-28s %3d jobs  %6.2f %6.2f %6.2f %6.2f\n",
				g.Group, g.Jobs, g.P50, g.P95, g.P99, g.Max)
		}
	}
	if len(r.Stragglers) > 0 {
		fmt.Fprintf(w, "stragglers:\n")
		for _, s := range r.Stragglers {
			fmt.Fprintf(w, "  cell %-4d %-32s %6.2fs  %s\n", s.Cell, s.Key, s.Seconds, orDash(s.Worker))
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
