package campaign

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relia"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures an Engine.
type Options struct {
	// Parallel bounds the worker pool; values below 1 use NumCPU.
	Parallel int
	// Cache, when non-nil, is consulted before and written after every
	// job.
	Cache Cache
	// OnProgress, when non-nil, is called as each cell retires with
	// the running totals in cells: done out of total, and how many of
	// them the cache served entirely. Calls are serialized, in
	// completion order.
	OnProgress func(done, total, hits int)
	// OnJobTime, when non-nil, is called with each simulated job's wall
	// time (cache hits excluded). It runs on worker goroutines and must
	// be concurrency-safe.
	OnJobTime func(time.Duration)
	// TraceDir, when non-empty, writes a flight-recorder trace for every
	// simulated job (cache hits have no simulation to trace) as
	// <mangled key+seed>.trace.json (Chrome trace-event JSON) and
	// .trace.jsonl next to it. Tracing is deliberately not part of the
	// job identity: fingerprints, cached metrics and result rows are
	// byte-identical with or without it.
	TraceDir string
	// TraceMatch, when non-empty, restricts TraceDir to jobs whose
	// aggregation key contains the substring.
	TraceMatch string
	// Journal, when non-nil, receives the run's lifecycle events
	// (expansion, per-cell start/completion/merge). Purely
	// observational: it never alters scheduling, fingerprints or
	// results, and a nil Journal records nothing.
	Journal *Journal
	// OnTrace, when non-nil, is called after each traced job with the
	// flight recorder's cumulative event and dropped-event counts for
	// that job. Runs on worker goroutines; must be concurrency-safe.
	OnTrace func(total, dropped uint64)
}

// Engine is the local Runner: the scheduler with in-process slots as
// its transport. It is stateless apart from its options and safe for
// concurrent runs (the mmmd service runs several campaigns at once on
// one engine).
type Engine struct {
	opts Options
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.Parallel < 1 {
		opts.Parallel = runtime.NumCPU()
	}
	return &Engine{opts: opts}
}

// Result is one completed job with its metrics and cache provenance.
type Result struct {
	Job      Job
	Metrics  core.Metrics
	CacheHit bool
}

// ResultSet holds a campaign's completed cells in expansion order —
// independent of scheduling, so aggregation over it is deterministic
// for any parallelism or transport.
type ResultSet struct {
	Scale   Scale
	Results []Result
	// Hits and Misses count waves served from the cache and simulated.
	// A fixed campaign has one wave per cell, so they count its jobs;
	// an adaptive cell contributes one per wave. Count Results with
	// CacheHit set for cache hits in cells.
	Hits   int
	Misses int
	Wall   time.Duration
}

// ByKey groups metrics by aggregation key, preserving expansion order
// within each key.
func (rs *ResultSet) ByKey() map[string][]core.Metrics {
	out := make(map[string][]core.Metrics)
	for _, r := range rs.Results {
		k := r.Job.Key()
		out[k] = append(out[k], r.Metrics)
	}
	return out
}

// Run executes an expanded job set on the bounded pool, serving and
// filling the cache, and returns the ordered results. It stops early
// when ctx is cancelled or a job fails, returning the first error.
func (e *Engine) Run(ctx context.Context, sc Scale, jobs []Job) (*ResultSet, error) {
	return e.run(ctx, fixedPlanner(sc, jobs))
}

// RunSpec executes a whole campaign spec: adaptively when it carries a
// precision block, as its expanded job set otherwise.
func (e *Engine) RunSpec(ctx context.Context, sc Scale, spec Spec) (*ResultSet, error) {
	p, err := planSpec(sc, spec)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, p)
}

// run schedules a planned campaign on the local transport.
func (e *Engine) run(ctx context.Context, p *planner) (*ResultSet, error) {
	return schedule(ctx, p, e, e.opts.Cache, e.opts.Journal, e.opts.OnProgress)
}

// board builds a local board: one lease per slot, and a job error
// fails the run at once (an attempt budget of 1). Local slots cannot
// go silent, so no lease ever expires and no reaper runs.
func (e *Engine) board(sc Scale) *board {
	return newBoard(sc, 0, e.opts.Parallel, 1, false)
}

// serve is the local transport: Parallel in-process slots pull from
// the board by direct calls — no HTTP, no polling — blocking until
// work arrives or the board closes. The slot number doubles as the
// journal's worker label, mirroring the worker names of distributed
// runs.
func (e *Engine) serve(_ context.Context, b *board) error {
	x := jobExec{
		onJobTime:  e.opts.OnJobTime,
		traceDir:   e.opts.TraceDir,
		traceMatch: e.opts.TraceMatch,
		onTrace:    e.opts.OnTrace,
	}
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Parallel; w++ {
		wg.Add(1)
		label := "local-" + strconv.Itoa(w)
		go func() {
			defer wg.Done()
			// Per-slot scratch: each slot recycles the cache hierarchy's
			// multi-megabyte line arrays across the chips it builds,
			// instead of allocating ~10 MB per job for the garbage
			// collector to chase. The recycler is confined to this
			// goroutine, so no locking is involved.
			scratch := cache.NewRecycler()
			for {
				id, bj, state := b.lease(label, true)
				if state == boardOver {
					return
				}
				m, err := x.run(b.sc, bj.job, scratch)
				b.complete(id, bj.fp, &m, err)
			}
		}()
	}
	wg.Wait()
	return b.wait()
}

// jobExec is the one job-execution path, shared by the local slots
// and fleet workers: simulate under a flight recorder when tracing
// matches the job, report the wall time, and write the trace. The
// hooks mirror the trace and timing fields of Options and
// WorkerOptions.
type jobExec struct {
	onJobTime  func(time.Duration)
	traceDir   string
	traceMatch string
	onTrace    func(total, dropped uint64)
}

// run executes one job. scratch recycles chip arrays across the jobs
// of one slot; nil is valid.
func (x jobExec) run(sc Scale, j Job, scratch *cache.Recycler) (core.Metrics, error) {
	rec := traceRecorder(x.traceDir, x.traceMatch, j)
	start := time.Now()
	m, err := runJob(sc, j, scratch, rec)
	if err != nil {
		return core.Metrics{}, err
	}
	if x.onJobTime != nil {
		x.onJobTime(time.Since(start))
	}
	if rec != nil {
		if err := writeTrace(x.traceDir, j, rec); err != nil {
			return core.Metrics{}, err
		}
		if x.onTrace != nil {
			x.onTrace(rec.Total(), rec.Dropped())
		}
	}
	return m, nil
}

// runJob builds and measures one simulation (or, for reliability
// jobs, one Monte Carlo trial batch). scratch recycles chip arrays
// across the jobs of one worker; nil is valid. rec, when non-nil,
// attaches a flight recorder to the simulated chip — pure observation,
// never part of the returned metrics.
func runJob(sc Scale, j Job, scratch *cache.Recycler, rec *obs.Recorder) (core.Metrics, error) {
	wl, err := workload.ByName(j.Workload)
	if err != nil {
		return core.Metrics{}, err
	}
	if j.Knobs.ReliaTrials > 0 {
		return runReliaJob(sc, j, wl, scratch, rec)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = sc.Timeslice
	j.Knobs.Apply(cfg)
	opts := core.Options{
		Cfg:         cfg,
		Kind:        j.Kind,
		Workload:    wl,
		Seed:        j.SimSeed(),
		Policy:      j.Knobs.Policy,
		PABDisabled: j.Knobs.PABDisabled,
		ForcePAB:    j.Knobs.ForcePAB,
		Recycler:    scratch,
		Recorder:    rec,
	}
	if j.Knobs.FaultInterval > 0 {
		opts.FaultPlan = &fault.Plan{
			MeanInterval: j.Knobs.FaultInterval,
			Kinds:        parseFaultKinds(j.Knobs.FaultKinds),
			Seed:         j.SimSeed(),
		}
	}
	return core.RunSystem(opts, sc.Warmup, sc.Measure)
}

// parseFaultKinds resolves a comma-joined kind list; unknown names are
// dropped (the fingerprint already separates the cells, and a relia
// job with an empty set falls back to all kinds).
func parseFaultKinds(s string) []fault.Kind {
	if s == "" {
		return nil
	}
	var kinds []fault.Kind
	for _, name := range strings.Split(s, ",") {
		if k, err := fault.KindByName(strings.TrimSpace(name)); err == nil {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// runReliaJob executes one reliability batch: ReliaTrials derived-seed
// trial slices with faults injected at the job's rate, classified into
// the outcome taxonomy. The batch rides in Metrics.Relia so it flows
// through the same cache and aggregation as performance jobs.
func runReliaJob(sc Scale, j Job, wl *workload.Params, scratch *cache.Recycler, rec *obs.Recorder) (core.Metrics, error) {
	// Wave jobs (adaptive-precision increments of one cell) size their
	// per-trial windows from the cell's reference batch shape — not
	// from the wave's own trial count — so every wave of a cell runs
	// statistically identical trials and the merged aggregate equals a
	// single batch of the same trials. Fixed-batch jobs keep the
	// historical trials-dependent windows (their cached results pin
	// them).
	windowTrials := j.Knobs.ReliaTrials
	if j.Knobs.Wave > 0 {
		windowTrials = DefaultReliaTrials
	}
	warmup, measure, timeslice := relia.TrialWindows(sc.Warmup, sc.Measure, windowTrials)
	// Design knobs (serial PAB, TSO, flush rate) apply to reliability
	// trials exactly as they do to performance jobs — the fingerprint
	// distinguishes those cells, so their results must differ too.
	cfg := sim.DefaultConfig()
	j.Knobs.Apply(cfg)
	batch, err := relia.RunBatch(relia.BatchSpec{
		Trials:     j.Knobs.ReliaTrials,
		FirstTrial: j.Knobs.TrialOffset,
		Trial: relia.TrialSpec{
			Kind:         j.Kind,
			Workload:     wl,
			Config:       cfg,
			Policy:       j.Knobs.Policy,
			Seed:         j.SimSeed(),
			Kinds:        parseFaultKinds(j.Knobs.FaultKinds),
			MeanInterval: j.Knobs.FaultInterval,
			Warmup:       warmup,
			Measure:      measure,
			Timeslice:    timeslice,
			ForcePAB:     j.Knobs.ForcePAB,
			PABDisabled:  j.Knobs.PABDisabled,
			Recycler:     scratch,
			Recorder:     rec,
		},
	})
	if err != nil {
		return core.Metrics{}, err
	}
	m := core.Metrics{
		Kind:           j.Kind,
		Workload:       j.Workload,
		Cycles:         uint64(j.Knobs.ReliaTrials) * measure,
		FaultsInjected: relia.TotalInjected(&batch),
		Relia:          &batch,
	}
	return m, nil
}

// summaryMetrics lists the per-key aggregates Summarize emits for the
// buckets-independent counters, in emission order.
var summaryMetrics = []struct {
	name string
	get  func(*core.Metrics) float64
}{
	{"tp:total", func(m *core.Metrics) float64 { return m.TotalThroughput() }},
	{"enter_avg", func(m *core.Metrics) float64 { return m.EnterAvg }},
	{"leave_avg", func(m *core.Metrics) float64 { return m.LeaveAvg }},
	{"enter_n", func(m *core.Metrics) float64 { return float64(m.EnterN) }},
	{"checks", func(m *core.Metrics) float64 { return float64(m.Checks) }},
	{"mismatches", func(m *core.Metrics) float64 { return float64(m.Mismatches) }},
	{"pab_exceptions", func(m *core.Metrics) float64 { return float64(m.PABExceptions) }},
	{"would_corrupt", func(m *core.Metrics) float64 { return float64(m.WouldCorrupt) }},
	{"verify_failures", func(m *core.Metrics) float64 { return float64(m.VerifyFailures) }},
	{"faults_injected", func(m *core.Metrics) float64 { return float64(m.FaultsInjected) }},
	{"user_cyc_per_switch", func(m *core.Metrics) float64 { return m.UserCycPerSwitch }},
	{"os_cyc_per_switch", func(m *core.Metrics) float64 { return m.OSCycPerSwitch }},
}

// Summarize aggregates a result set into stats rows: per aggregation
// key, the per-bucket user IPC and throughput plus the fixed counter
// set, each summarized over the key's seeds. Keys, buckets and metrics
// are emitted in sorted/fixed order so the rows — and their JSON/CSV
// renderings — are byte-identical across runs, parallelism levels and
// cache temperature.
func Summarize(rs *ResultSet) []stats.Row {
	byKey := rs.ByKey()
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows []stats.Row
	for _, k := range keys {
		ms := byKey[k]
		buckets := map[string]bool{}
		for i := range ms {
			for b := range ms[i].GuestVCPUs {
				buckets[b] = true
			}
		}
		names := make([]string, 0, len(buckets))
		for b := range buckets {
			names = append(names, b)
		}
		sort.Strings(names)
		for _, b := range names {
			ipc, tp := &stats.Sample{}, &stats.Sample{}
			for i := range ms {
				ipc.Add(ms[i].UserIPC(b))
				tp.Add(ms[i].Throughput(b))
			}
			rows = append(rows, stats.RowOf(k, "ipc:"+b, ipc))
			rows = append(rows, stats.RowOf(k, "tp:"+b, tp))
		}
		for _, sm := range summaryMetrics {
			s := &stats.Sample{}
			for i := range ms {
				s.Add(sm.get(&ms[i]))
			}
			rows = append(rows, stats.RowOf(k, sm.name, s))
		}
		// Reliability cells additionally emit the outcome-taxonomy
		// rows: coverage/SDC with Wilson intervals, outcome counts,
		// detection-latency percentiles and the MTTF/FIT rollup.
		batches := make([]*core.ReliaBatch, 0, len(ms))
		for i := range ms {
			batches = append(batches, ms[i].Relia)
		}
		if merged := relia.MergeBatches(batches); merged != nil {
			rows = append(rows, relia.Rows(k, merged, relia.DefaultRates())...)
		}
	}
	return rows
}
