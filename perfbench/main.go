// Command perfbench is the repository's benchmark: one closed-loop
// client drives a named workload through the public entry points of
// the campaign, simulator and reliability layers, checks every output,
// and prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 112, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run measures the workload untraced, then
// again with spans around every call the benchmark makes into a layer,
// then probes the layers one call at a time, and reports the per-layer
// metrics. See README.md for the workloads and what each metric should
// move.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

const (
	// A run sets its workload up at least setupMin times, and again
	// until setupBudget has passed or setupMax set-ups ran; setup_s is
	// their median.
	setupMin    = 3
	setupMax    = 15
	setupBudget = 3 * time.Second
	// minOps is the fewest ops a measured loop ends with, so op_s_p90
	// has at least ten samples beyond it.
	minOps = 100
	// loopDeadline bounds the measured loops, so a slow machine still
	// ends the run well inside its time limit.
	loopDeadline = 120 * time.Second
)

// metricDef is a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// each of them, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_s_p50", "s"},
	{"op_s_p90", "s"},
	{"max_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"sim_cycles_per_s", "cycles/s"},
}

// perLayer are the metrics of every workload's traced run. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.new_system_ms", "ms"},
	{"core.ns_per_cycle.no-dmr-2x", "ns/cycle"},
	{"core.ns_per_cycle.no-dmr", "ns/cycle"},
	{"core.ns_per_cycle.reunion", "ns/cycle"},
	{"core.ns_per_cycle.dmr-base", "ns/cycle"},
	{"core.ns_per_cycle.mmm-ipc", "ns/cycle"},
	{"core.ns_per_cycle.mmm-tp", "ns/cycle"},
	{"core.ns_per_cycle.single-os", "ns/cycle"},
	{"core.ns_per_cycle.mmm-ipc.utilization", "ns/cycle"},
	{"core.sim_cycles", "cycles"},
	{"cpu.host_ns_per_commit", "ns"},
	{"cpu.commits", "count"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.idle_frac", "frac"},
	{"cpu.window_full_frac", "frac"},
	{"cpu.check_wait_frac", "frac"},
	{"trace.next_ns.apache", "ns"},
	{"trace.next_ns.pmake", "ns"},
	{"paging.tlb_lookup_ns", "ns"},
	{"cache.load_ns", "ns"},
	{"cache.store_ns", "ns"},
	{"paging.tlb_miss_ratio", "frac"},
	{"cache.l1_miss_ratio", "frac"},
	{"cache.l2_miss_ratio", "frac"},
	{"cache.flushed_lines", "count"},
	{"reunion.checks", "count"},
	{"reunion.mismatches", "count"},
	{"pab.checks", "count"},
	{"pab.misses", "count"},
	{"pab.exceptions", "count"},
	{"mode.switches", "count"},
	{"mode.enter_cycles_avg", "cycles"},
	{"mode.leave_cycles_avg", "cycles"},
	{"campaign.expand_ms", "ms"},
	{"campaign.fingerprint_us", "us"},
	{"campaign.cache_get_us_p50", "us"},
	{"campaign.cache_get_us_p90", "us"},
	{"campaign.cache_put_us_p50", "us"},
	{"campaign.cache_put_us_p90", "us"},
	{"campaign.summarize_ms", "ms"},
	{"campaign.journal_replay_ms", "ms"},
	{"campaign.journal_events", "count"},
	{"campaign.journal_bytes", "bytes"},
	{"campaign.hit_ratio", "frac"},
	{"campaign.job_s_p50", "s"},
	{"campaign.job_s_p90", "s"},
	{"campaign.worker_idle_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"layer.self_share.bench", "frac"},
	{"layer.self_share.campaign", "frac"},
	{"layer.self_share.core", "frac"},
}

// reliaLayer are the per-layer metrics only relia-adaptive's traced run
// reports: the other workloads run no reliability trials.
var reliaLayer = []metricDef{
	{"relia.batch_s_p50", "s"},
	{"relia.batch_s_p90", "s"},
	{"relia.trial_setup_share", "frac"},
	{"relia.trials", "count"},
	{"relia.waves", "count"},
	{"relia.cells_retired", "count"},
	{"relia.cells_capped", "count"},
	{"relia.trials_saved_pct", "%"},
	{"relia.faults_injected", "count"},
	{"relia.trials_per_s", "1/s"},
	{"layer.self_share.relia", "frac"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-cold, relia-adaptive or resubmit-warm")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fs.Int("seconds", 20, "how long the measured loop runs")
	traced := fs.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (sweep-cold, relia-adaptive, resubmit-warm), -seconds >= 1, -trace 0|1: %v\n", err)
		return 2
	}
	// Run from the checkout root: everything the run writes stays
	// under .bench_build there.
	outDir := filepath.Join(".bench_build", "perfbench")
	b := &bench{
		ctx:     context.Background(),
		seed:    *seed,
		workers: min(2, runtime.NumCPU()),
		dir:     filepath.Join(outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	st := readStamp()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d workers=%d\n",
		w.name, *seed, *secs, *traced, b.workers)
	fmt.Fprintf(stdout, "stamp cpu=%q mhz=%s nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		st.CPU, st.MHz, st.NProc, st.GOMAXPROCS, st.Go, st.Commit)

	var setups []float64
	var ws *state
	setupStart := time.Now()
	for len(setups) < setupMin || (len(setups) < setupMax && time.Since(setupStart) < setupBudget) {
		start := time.Now()
		ws, err = w.setup(b)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			printResult(stdout, result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Hand the set-up's garbage back to the system, so the measured
	// passes start from the same heap every run.
	runtime.GC()
	debug.FreeOSMemory()

	deadline := time.Now().Add(loopDeadline)
	budget := time.Duration(*secs) * time.Second
	var res result
	if *traced == 0 {
		b.rss = startRSS()
		passes := loop(b, w, ws, budget, minOps, deadline)
		if b.rss != nil {
			b.rss.close()
		}
		res = summarize(stdout, w, passes)
		res.Metrics = report(stdout, endToEnd, endToEndMetrics(stdout, setups, passes))
	} else {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		untraced := loop(b, w, ws, budget/2, 0, deadline)
		runtime.ReadMemStats(&after)
		b.tr = newTracer()
		tracedPasses := loop(b, w, ws, budget/2, 0, deadline)
		all := append(append([]passStats(nil), untraced...), tracedPasses...)
		res = summarize(stdout, w, all)
		lm := layerMetrics{}
		if err := w.probe(b, ws, lm); err != nil {
			fmt.Fprintf(stdout, "FAIL probe: %v\n", err)
			res.Attempted++
			res.Failed++
			res.Correct = false
		}
		layerFromPasses(lm, b, ws, untraced, tracedPasses)
		jobs := 0
		for _, ps := range tracedPasses {
			jobs += len(ps.jobTimes)
		}
		fmt.Fprintf(stdout, "samples job_s=%d cache_get=%d cache_put=%d\n",
			jobs, len(b.cacheT.gets), len(b.cacheT.puts))
		lm["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(len(untraced))
		lm["runtime.gc_cycles"] = float64(after.NumGC-before.NumGC) / float64(len(untraced))
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := b.tr.write(path, map[string]any{"workload": w.name, "seed": *seed, "stamp": st}); err != nil {
			fmt.Fprintf(stderr, "perfbench: spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans %s\n", path)
		}
		res.Metrics = report(stdout, append(slices.Clip(perLayer), w.extraLayers...), lm)
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// loop is the closed loop: the client runs pass after pass, each only
// after the previous one completes, until the budget is spent and at
// least minOps ops have run (or the deadline passes).
func loop(b *bench, w *workloadDef, st *state, budget time.Duration, minOps int, deadline time.Time) []passStats {
	start := time.Now()
	var out []passStats
	ops := 0
	for {
		ps := w.pass(b, st, b.passes)
		if b.rss != nil {
			ps.peakRSS = b.rss.take()
		}
		b.passes++
		out = append(out, ps)
		ops += len(ps.ops)
		if (time.Since(start) >= budget && ops >= minOps) || time.Now().After(deadline) {
			return out
		}
	}
}

// summarize counts the passes' ops and failures, checks that every
// pass produced the same rows and simulated counters, and prints the
// failures and the digests.
func summarize(out io.Writer, w *workloadDef, passes []passStats) result {
	res := result{}
	var rowsRef, countersRef string
	for i, ps := range passes {
		res.Attempted += ps.attempted
		res.Failed += ps.failed
		for _, e := range ps.errs {
			fmt.Fprintf(out, "FAIL %s\n", e)
		}
		rows, counters := ps.digests()
		if rows == "" {
			continue // no submission of the pass returned results
		}
		if rowsRef == "" {
			rowsRef, countersRef = rows, counters
			continue
		}
		if rows != rowsRef || counters != countersRef {
			fmt.Fprintf(out, "FAIL pass %d: rows or counters differ from the first pass\n", i)
			res.Failed++
		}
	}
	res.Attempted = max(res.Attempted, 1)
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "digest %s rows=%s counters=%s\n", w.name, rowsRef, countersRef)
	fmt.Fprintf(out, "failed_frac %.6g frac (%d of %d ops)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res
}

// endToEndMetrics derives the end-to-end metrics from the measured
// passes and prints how each timing was taken.
func endToEndMetrics(out io.Writer, setups []float64, passes []passStats) map[string]float64 {
	var walls, ops, rss []float64
	var wall time.Duration
	var jobs, trials int
	var cycles float64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
		ops = append(ops, inUnits(ps.ops, time.Second)...)
		if ps.peakRSS > 0 {
			rss = append(rss, ps.peakRSS)
		}
		wall += ps.wall
		jobs += ps.jobs
		cycles += ps.simCycles
		trials += ps.relia.trials
	}
	q1, q2, q3 := quartiles(walls)
	fmt.Fprintf(out, "setup_s: median of %d set-ups %v\n", len(setups), setups)
	fmt.Fprintf(out, "wall_s: median of %d passes, quartiles %.4f %.4f %.4f\n", len(walls), q1, q2, q3)
	fmt.Fprintf(out, "op_s: %d ops, %d beyond p90, highest percentile with ten beyond p%g\n",
		len(ops), beyond(len(ops), 90), tailPercentile(len(ops)))
	maxRSS := median(rss)
	if len(rss) > 0 {
		fmt.Fprintf(out, "max_rss_mb: median of %d passes' peaks\n", len(rss))
	} else {
		maxRSS = maxRSSMB()
		fmt.Fprintf(out, "max_rss_mb: peak of the whole process (no /proc/self/statm)\n")
	}
	if trials > 0 {
		fmt.Fprintf(out, "trials_per_s %.6g 1/s (%d trials)\n", float64(trials)/wall.Seconds(), trials)
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           median(walls),
		"op_s_p50":         median(ops),
		"op_s_p90":         percentile(ops, 90),
		"max_rss_mb":       maxRSS,
		"jobs_per_s":       ratio(float64(jobs), wall.Seconds()),
		"sim_cycles_per_s": ratio(cycles, wall.Seconds()),
	}
}

// layerFromPasses adds the per-layer figures the measured passes give:
// the campaign layer's calls and the engine's jobs from the traced
// passes, throughput and tracing overhead against the untraced ones.
func layerFromPasses(lm layerMetrics, b *bench, st *state, untraced, traced []passStats) {
	lm["core.new_system_ms"] = median(inUnits(st.newSys, time.Millisecond))

	var jobTimes, summ, replay []time.Duration
	var events, bytes []float64
	var engine time.Duration
	var hits, misses int
	for _, ps := range traced {
		jobTimes = append(jobTimes, ps.jobTimes...)
		summ = append(summ, ps.summarize...)
		replay = append(replay, ps.replay...)
		events = append(events, ps.events...)
		bytes = append(bytes, ps.bytes...)
		engine += ps.engine
		hits += ps.hits
		misses += ps.misses
	}
	job := inUnits(jobTimes, time.Second)
	lm["campaign.job_s_p50"] = median(job)
	lm["campaign.job_s_p90"] = percentile(job, 90)
	lm["campaign.worker_idle_frac"] = workerIdleFrac(sumDur(jobTimes), b.workers, engine)
	lm["campaign.summarize_ms"] = median(inUnits(summ, time.Millisecond))
	lm["campaign.journal_replay_ms"] = median(inUnits(replay, time.Millisecond))
	lm["campaign.journal_events"] = median(events)
	lm["campaign.journal_bytes"] = median(bytes)
	lm["campaign.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	lm["campaign.cache_get_us_p50"] = median(inUnits(b.cacheT.gets, time.Microsecond))
	lm["campaign.cache_get_us_p90"] = percentile(inUnits(b.cacheT.gets, time.Microsecond), 90)
	lm["campaign.cache_put_us_p50"] = median(inUnits(b.cacheT.puts, time.Microsecond))
	lm["campaign.cache_put_us_p90"] = percentile(inUnits(b.cacheT.puts, time.Microsecond), 90)

	if last := traced[len(traced)-1].relia; last.waves > 0 {
		// A reliability wave is one relia.RunBatch call.
		lm["relia.batch_s_p50"] = lm["campaign.job_s_p50"]
		lm["relia.batch_s_p90"] = lm["campaign.job_s_p90"]
		lm["relia.trials"] = float64(last.trials)
		lm["relia.waves"] = float64(last.waves)
		lm["relia.cells_retired"] = float64(last.retired - last.capped)
		lm["relia.cells_capped"] = float64(last.capped)
		lm["relia.trials_saved_pct"] = last.savedPct
		lm["relia.faults_injected"] = float64(last.faults)
	}
	var trials int
	var wall time.Duration
	var walls []float64
	for _, ps := range untraced {
		trials += ps.relia.trials
		wall += ps.wall
		walls = append(walls, ps.wall.Seconds())
	}
	lm["relia.trials_per_s"] = ratio(float64(trials), wall.Seconds())
	var tracedWalls []float64
	for _, ps := range traced {
		tracedWalls = append(tracedWalls, ps.wall.Seconds())
	}
	lm["bench.trace_overhead_frac"] = ratio(median(tracedWalls)-median(walls), median(walls))
	shares := layerSelfShares(b.tr.snapshot(), func(s span) bool { return s.Name == "bench.submit" })
	for _, layer := range []string{"bench", "campaign", "core", "relia"} {
		lm["layer.self_share."+layer] = shares[layer]
	}
}

// report prints every metric of defs by name with its unit and returns
// them for the result line; a metric the run did not produce is 0.
func report(out io.Writer, defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(out, "%s %.6g %s\n", d.name, v, d.unit)
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return m
}

func printResult(out io.Writer, res result) {
	blob, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or an infinity can fail to encode; that is a bug
		// in the arithmetic above.
		panic(err)
	}
	fmt.Fprintln(out, string(blob))
}
