package campaign

import (
	"sort"
	"strings"

	"repro/internal/api"
)

// Wall-clock attribution over a run journal: where did the campaign's
// time actually go? Per-worker busy seconds and utilization, the
// cache-hit ratio, straggler jobs and per-group (workload x kind)
// job-seconds percentiles, and the lease-churn counters
// (reassignments, missed heartbeats) — everything "Producing Wrong
// Data Without Doing Anything Obviously Wrong" says a single median
// hides. Computed purely from journal events, so it works live
// (mmmtail -follow), post-hoc (mmmtail -report) and in GET
// /v1/campaigns/{id}.

// The report types live in internal/api (GET /v1/campaigns/{id}
// embeds the report and mmmtail renders it); Attribute — the journal
// fold that computes them — stays here with the journal it reads.
type (
	WorkerReport = api.WorkerReport
	GroupReport  = api.GroupReport
	CellReport   = api.CellReport
	Report       = api.Report
)

// maxStragglers bounds the slowest-jobs list.
const maxStragglers = 5

// Attribute computes the wall-clock attribution report from a run's
// journal events. Incomplete journals (a live or crashed run) are
// fine: the report covers whatever has been journaled so far.
//
// Job time comes from the completed events, one per simulated job —
// a fixed cell or one wave of an adaptive cell — so groups and
// stragglers are counted per job, whatever the campaign's shape.
func Attribute(runID string, events []Event) Report {
	rep := Report{Run: runID, Outcome: "running"}
	if len(events) == 0 {
		return rep
	}
	rep.WallSeconds = events[len(events)-1].Time.Sub(events[0].Time).Seconds()

	workers := map[string]*WorkerReport{}
	workerOf := func(name string) *WorkerReport {
		w := workers[name]
		if w == nil {
			w = &WorkerReport{Worker: name}
			workers[name] = w
		}
		return w
	}
	type cellTime struct {
		cell    int
		key     string
		worker  string
		seconds float64
	}
	var simulated []cellTime
	groups := map[string][]float64{}

	maxTrials, waves := 0, 0
	for i := range events {
		ev := &events[i]
		switch ev.Type {
		case EventExpanded:
			rep.Cells = ev.Total
			if ev.Precision != nil {
				rep.Adaptive = true
				maxTrials = ev.Precision.MaxTrials
			}
		case EventWaveScheduled:
			waves++
			rep.TrialsScheduled += ev.Trials
		case EventCellRetired:
			rep.CellsRetired++
			if ev.Capped {
				rep.CellsCapped++
			}
		case EventCacheHit:
			rep.CacheHits++
		case EventCompleted:
			secs := float64(ev.WallMS) / 1000
			w := workerOf(ev.Worker)
			w.Jobs++
			w.BusySeconds += secs
			simulated = append(simulated, cellTime{ev.Cell, ev.Key, ev.Worker, secs})
			g := groupOf(ev.Key)
			groups[g] = append(groups[g], secs)
		case EventFailed:
			if ev.Cell >= 0 {
				rep.Failures++
				if ev.Worker != "" {
					workerOf(ev.Worker).Failures++
				}
			} else {
				rep.Outcome = "failed"
			}
		case EventCanceled:
			if ev.Cell == -1 {
				rep.Outcome = "canceled"
			}
		case EventReassigned:
			rep.Reassignments++
		case EventHeartbeatMissed:
			rep.HeartbeatsMissed++
			if ev.Worker != "" {
				workerOf(ev.Worker).Failures++
			}
		case EventMerged:
			rep.Merged++
		}
	}
	if rep.Cells > 0 && rep.Merged == rep.Cells && rep.Outcome == "running" {
		rep.Outcome = "done"
	}
	if rep.Adaptive && waves > 0 {
		// Adaptive cache hits land per wave; rate them against waves
		// scheduled, not cells merged.
		rep.CacheHitPct = 100 * float64(rep.CacheHits) / float64(waves)
	} else if rep.Merged > 0 {
		rep.CacheHitPct = 100 * float64(rep.CacheHits) / float64(rep.Merged)
	}
	if rep.Adaptive {
		// Trials saved vs fixed: the fixed-batch equivalent of an
		// adaptive run is cells x MaxTrials — the worst-case sample a
		// fixed design must provision to promise the same half-width
		// (see stats.WorstCaseTrials, the MaxTrials default).
		rep.TrialsFixed = rep.Cells * maxTrials
		if rep.TrialsFixed > 0 {
			rep.TrialsSavedPct = 100 * (1 - float64(rep.TrialsScheduled)/float64(rep.TrialsFixed))
		}
	}

	names := make([]string, 0, len(workers))
	for n := range workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := workers[n]
		rep.BusySeconds += w.BusySeconds
		if rep.WallSeconds > 0 {
			w.BusyPct = 100 * w.BusySeconds / rep.WallSeconds
		}
		rep.Workers = append(rep.Workers, *w)
	}

	gnames := make([]string, 0, len(groups))
	for g := range groups {
		gnames = append(gnames, g)
	}
	sort.Strings(gnames)
	for _, g := range gnames {
		secs := groups[g]
		sort.Float64s(secs)
		rep.Groups = append(rep.Groups, GroupReport{
			Group: g,
			Jobs:  len(secs),
			P50:   percentile(secs, 50),
			P95:   percentile(secs, 95),
			P99:   percentile(secs, 99),
			Max:   secs[len(secs)-1],
		})
	}

	sort.SliceStable(simulated, func(i, k int) bool {
		if simulated[i].seconds != simulated[k].seconds {
			return simulated[i].seconds > simulated[k].seconds
		}
		return simulated[i].cell < simulated[k].cell
	})
	if len(simulated) > maxStragglers {
		simulated = simulated[:maxStragglers]
	}
	for _, c := range simulated {
		rep.Stragglers = append(rep.Stragglers, CellReport{
			Cell: c.cell, Key: c.key, Worker: c.worker, Seconds: c.seconds})
	}
	return rep
}

// groupOf returns the workload/kind prefix of a job key
// (workload/kind[/variant][/pol=policy]).
func groupOf(key string) string {
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return key
	}
	if k := strings.IndexByte(key[i+1:], '/'); k >= 0 {
		return key[:i+1+k]
	}
	return key
}

// percentile returns the nearest-rank p-th percentile of sorted
// samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
