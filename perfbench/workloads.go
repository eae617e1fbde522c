package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/relia"
	"repro/internal/stats"
	"repro/internal/workload"
)

// perfMixes are the two server mixes the cold workloads run: apache is
// switch- and sharing-heavy, pmake has almost no sharing and long user
// bursts.
var perfMixes = []string{"apache", "pmake"}

// reliaPrecision is relia-adaptive's fixed stopping target: a coarse
// interval so one campaign runs in seconds, with room for cells to
// retire before the cap.
var reliaPrecision = campaign.Precision{HalfWidth: 0.15, WaveTrials: 2, MinTrials: 4, MaxTrials: 12}

// warmScale and warmPrecision size resubmit-warm's cache fill: every
// registered campaign over all six mixes, small enough to fill in a
// few seconds.
var (
	warmScale     = campaign.Scale{Warmup: 5_000, Measure: 10_000, Timeslice: 2_500}
	warmPrecision = campaign.Precision{HalfWidth: 0.25, WaveTrials: 1, MinTrials: 1, MaxTrials: 1}
)

// warmupCycles is how long each set-up chip runs.
const warmupCycles = 20_000

// bench is one benchmark process: the client of every workload.
type bench struct {
	ctx     context.Context
	seed    uint64
	workers int
	dir     string       // private scratch directory, removed at exit
	tr      *tracer      // nil outside the traced phase
	rss     *rssSampler  // nil outside the untraced measured loop
	files   int          // scratch names handed out
	passes  int          // passes run, across phases
	cacheT  cacheTimings // DiskCache call times of the traced phase
}

// scratch returns a fresh path under the private directory.
func (b *bench) scratch(name string) string {
	b.files++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.files))
}

// submission is one campaign the client submits and waits for.
type submission struct {
	name string
	sc   campaign.Scale
	spec campaign.Spec
	jobs []campaign.Job // set for specs run through Engine.Run
}

// state is what a workload's set-up leaves for its passes.
type state struct {
	subs    []submission
	cache   *campaign.DiskCache // resubmit-warm: the filled cache
	fill    map[string][]byte   // resubmit-warm: rows of the fill, per campaign
	newSys  []time.Duration     // core.NewSystem calls of the set-up chips
	last    *campaign.ResultSet // results of the latest pass
	lastSub string              // op of the latest submission
}

// reliaStats are the adaptive planner's counts for one campaign.
type reliaStats struct {
	trials, waves, retired, capped int
	savedPct                       float64
	faults                         uint64
}

// passStats is what one pass of a workload's closed loop reports.
type passStats struct {
	wall      time.Duration   // client-visible time of the pass's ops
	engine    time.Duration   // time inside Engine.Run/RunSpec
	ops       []time.Duration // one per op
	attempted int
	failed    int
	errs      []string
	jobs      int     // results delivered (simulated or served)
	simCycles float64 // simulated cycles behind the delivered results
	hits      int
	misses    int
	jobTimes  []time.Duration // simulated jobs (Options.OnJobTime)
	summarize []time.Duration
	replay    []time.Duration // ReadJournalFile + ValidateEvents + ReplayResults
	events    []float64       // journal events per submission
	bytes     []float64       // journal bytes per submission
	relia     reliaStats
	peakRSS   float64   // MB, sampled while the pass ran
	rows      hash.Hash // rows of every submission, in order
	counters  hash.Hash // simulated counters of every result, in order
}

// fail counts n failed ops with the reason.
func (ps *passStats) fail(n int, format string, args ...any) {
	ps.failed += n
	ps.errs = append(ps.errs, fmt.Sprintf(format, args...))
}

// workloadDef is one named closed-loop workload with a single client.
type workloadDef struct {
	name  string
	setup func(b *bench) (*state, error)
	pass  func(b *bench, st *state, n int) passStats
	probe func(b *bench, st *state, lm layerMetrics) error
	// extraLayers are per-layer metrics only this workload reports.
	extraLayers []metricDef
}

var workloads = []*workloadDef{
	{name: "sweep-cold", setup: sweepSetup, pass: sweepPass, probe: sweepProbe},
	{name: "relia-adaptive", setup: reliaSetup, pass: reliaPass, probe: reliaProbe, extraLayers: reliaLayer},
	{name: "resubmit-warm", setup: warmSetup, pass: warmPass, probe: campaignProbe},
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// warmUp builds one chip of every kind for each cold mix through
// core.NewSystem and runs it briefly, so lazy set-up in the simulator
// and the Go runtime is done before timing. Every workload's set-up
// runs the same chips. It returns the NewSystem call times.
func warmUp(b *bench) ([]time.Duration, error) {
	rec := cache.NewRecycler()
	var out []time.Duration
	for _, mix := range perfMixes {
		wl, err := workload.ByName(mix)
		if err != nil {
			return nil, err
		}
		for _, k := range core.AllKinds() {
			start := time.Now()
			chip, err := core.NewSystem(core.Options{Kind: k, Workload: wl, Seed: b.seed, Recycler: rec})
			if err != nil {
				return nil, fmt.Errorf("warm-up %s/%s: %w", mix, k, err)
			}
			out = append(out, time.Since(start))
			chip.Run(warmupCycles)
			chip.Release()
		}
	}
	return out, nil
}

// submitResult is one submission as the client saw it.
type submitResult struct {
	rs        *campaign.ResultSet
	rows      []byte // Summarize rows as JSON
	events    []campaign.Event
	journal   string
	wall      time.Duration // Engine call + Summarize
	engine    time.Duration // Engine call alone
	summarize time.Duration
	jobTimes  []time.Duration
	err       error
}

// submit runs one campaign through the engine with a journal and
// summarizes it: the client's op. In the traced phase it records the
// op's spans.
func (b *bench) submit(sub submission, c campaign.Cache, op string) submitResult {
	res := submitResult{journal: b.scratch("journal") + ".jsonl"}
	j, err := campaign.NewJournal(op, res.journal)
	if err != nil {
		res.err = err
		return res
	}
	var mu sync.Mutex
	eng := campaign.New(campaign.Options{
		Parallel: b.workers,
		Cache:    c,
		Journal:  j,
		OnJobTime: func(d time.Duration) {
			mu.Lock()
			res.jobTimes = append(res.jobTimes, d)
			mu.Unlock()
		},
	})
	root := b.tr.begin("bench.submit", -1, op)
	engName := "campaign.Engine.RunSpec"
	if sub.jobs != nil {
		engName = "campaign.Engine.Run"
	}
	engSpan := b.tr.begin(engName, root, op)
	if tc, ok := c.(*tracedCache); ok {
		tc.bind(engSpan, op, sub)
	}
	start := time.Now()
	if sub.jobs != nil {
		res.rs, res.err = eng.Run(b.ctx, sub.sc, sub.jobs)
	} else {
		res.rs, res.err = eng.RunSpec(b.ctx, sub.sc, sub.spec)
	}
	res.engine = time.Since(start)
	b.tr.end(engSpan)
	var rows []stats.Row
	if res.err == nil {
		id := b.tr.begin("campaign.Summarize", root, op)
		t0 := time.Now()
		rows = campaign.Summarize(res.rs)
		res.summarize = time.Since(t0)
		b.tr.end(id)
	}
	j.Finish(res.err)
	res.wall = time.Since(start)
	b.tr.end(root)
	if res.err == nil {
		res.err = j.Err()
	}
	res.events = j.Events()
	if b.tr != nil {
		b.jobSpans(res.events, engSpan, op)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, rows); err != nil && res.err == nil {
		res.err = err
	}
	res.rows = buf.Bytes()
	return res
}

// jobSpans turns the journal's started/completed pairs into spans of
// the simulations the engine ran: core.RunSystem for performance jobs,
// relia.RunBatch for reliability waves.
func (b *bench) jobSpans(events []campaign.Event, parent int, op string) {
	type key struct{ cell, wave int }
	started := make(map[key]time.Time)
	for _, ev := range events {
		k := key{ev.Cell, ev.Wave}
		switch ev.Type {
		case campaign.EventStarted:
			started[k] = ev.Time
		case campaign.EventCompleted:
			t0, ok := started[k]
			if !ok {
				continue
			}
			name, id := "core.RunSystem", fmt.Sprintf("%s/c%d", op, ev.Cell)
			if ev.Wave > 0 {
				name, id = "relia.RunBatch", fmt.Sprintf("%s/c%d/w%d", op, ev.Cell, ev.Wave)
			}
			b.tr.record(name, parent, id, t0, ev.Time)
		}
	}
}

// checkSubmission runs the checks every submission must pass: the
// journal validates and complete, and its replay summarizes to the
// live rows byte for byte. It adds the journal figures to ps.
func (b *bench) checkSubmission(ps *passStats, res submitResult, op string) {
	defer os.Remove(res.journal)
	id := b.tr.begin("bench.check", -1, op)
	defer b.tr.end(id)
	rid := b.tr.begin("campaign.journal_replay", id, op)
	start := time.Now()
	events, err := campaign.ReadJournalFile(res.journal)
	var chk campaign.JournalCheck
	if err == nil {
		chk, err = campaign.ValidateEvents(events)
	}
	var replayed *campaign.ResultSet
	if err == nil {
		replayed, err = campaign.ReplayResults(events)
	}
	ps.replay = append(ps.replay, time.Since(start))
	b.tr.end(rid)
	if err != nil {
		ps.fail(1, "%s: journal: %v", op, err)
		return
	}
	if !chk.Complete {
		ps.fail(1, "%s: journal incomplete (%d of %d cells merged)", op, chk.Merged, chk.Total)
		return
	}
	if fi, err := os.Stat(res.journal); err == nil {
		ps.bytes = append(ps.bytes, float64(fi.Size()))
	}
	ps.events = append(ps.events, float64(len(events)))
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, campaign.Summarize(replayed)); err != nil {
		ps.fail(1, "%s: replayed rows: %v", op, err)
		return
	}
	if !bytes.Equal(buf.Bytes(), res.rows) {
		ps.fail(1, "%s: journal replay rows differ from the live rows", op)
	}
}

// record adds a successful submission's outputs to the pass: rows,
// simulated counters, delivered results and their simulated cycles.
func (ps *passStats) record(sub submission, res submitResult) error {
	ps.engine += res.engine
	ps.summarize = append(ps.summarize, res.summarize)
	ps.jobTimes = append(ps.jobTimes, res.jobTimes...)
	ps.hits += res.rs.Hits
	ps.misses += res.rs.Misses
	if ps.rows == nil {
		ps.rows, ps.counters = sha256.New(), sha256.New()
	}
	ps.rows.Write(res.rows)
	for _, r := range res.rs.Results {
		blob, err := json.Marshal(r.Metrics)
		if err != nil {
			return fmt.Errorf("%s: encode metrics: %w", sub.name, err)
		}
		ps.counters.Write(blob)
		ps.simCycles += simCycles(sub.sc, r)
	}
	return nil
}

// digests returns the hex SHA-256 of the pass's rows and counters.
func (ps *passStats) digests() (rows, counters string) {
	if ps.rows == nil {
		return "", ""
	}
	return hex.EncodeToString(ps.rows.Sum(nil)), hex.EncodeToString(ps.counters.Sum(nil))
}

// simCycles is the simulated cycles behind one result: warm-up plus
// measurement for a performance job, and that of every trial for a
// reliability one.
func simCycles(sc campaign.Scale, r campaign.Result) float64 {
	if b := r.Metrics.Relia; b != nil {
		// Waves and adaptive cells size their trials from the reference
		// batch shape, as the engine does.
		wt := r.Job.Knobs.ReliaTrials
		if wt <= 0 || r.Job.Knobs.Wave > 0 {
			wt = campaign.DefaultReliaTrials
		}
		w, m, _ := relia.TrialWindows(sc.Warmup, sc.Measure, wt)
		return float64(b.Trials) * float64(w+m)
	}
	return float64(sc.Warmup + sc.Measure)
}

// --- sweep-cold --------------------------------------------------------

func sweepSetup(b *bench) (*state, error) {
	spec := campaign.Spec{
		Name:      "sweep-cold",
		Kinds:     core.AllKinds(),
		Workloads: perfMixes,
		Seeds:     []uint64{b.seed},
		Policies:  []string{"", "utilization"},
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if len(jobs) != 28 {
		return nil, fmt.Errorf("sweep-cold expands to %d jobs, want 28", len(jobs))
	}
	newSys, err := warmUp(b)
	if err != nil {
		return nil, err
	}
	return &state{
		subs:   []submission{{name: spec.Name, sc: campaign.QuickScale(), spec: spec, jobs: jobs}},
		newSys: newSys,
	}, nil
}

// coldPass submits the state's one campaign into a fresh DiskCache.
func coldPass(b *bench, st *state, n int, attempted int) (passStats, submitResult, bool) {
	ps := passStats{attempted: attempted}
	sub := st.subs[0]
	op := fmt.Sprintf("p%d", n)
	dir := b.scratch("cache")
	defer os.RemoveAll(dir)
	dc, err := campaign.NewDiskCache(dir)
	if err != nil {
		ps.fail(attempted, "%s: %v", op, err)
		return ps, submitResult{}, false
	}
	res := b.submit(sub, b.wrap(dc), op)
	ps.wall = res.wall
	if res.err != nil {
		os.Remove(res.journal)
		ps.fail(attempted, "%s: %v", op, res.err)
		return ps, res, false
	}
	if err := ps.record(sub, res); err != nil {
		ps.fail(1, "%v", err)
	}
	if res.rs.Hits != 0 {
		ps.fail(res.rs.Hits, "%s: cold campaign served %d cache hits", op, res.rs.Hits)
	}
	b.checkSubmission(&ps, res, op)
	st.last, st.lastSub = res.rs, op
	return ps, res, true
}

func sweepPass(b *bench, st *state, n int) passStats {
	jobs := st.subs[0].jobs
	ps, res, ok := coldPass(b, st, n, len(jobs))
	if !ok {
		return ps
	}
	// An op is one job.
	ps.ops = res.jobTimes
	ps.jobs = len(res.rs.Results)
	// Every performance cell commits user instructions in every guest
	// bucket. (resubmit-warm's tiny fill scale is too short for that:
	// MMM-TP's reliable guest may not run inside its window.)
	for _, r := range res.rs.Results {
		for bucket := range r.Metrics.GuestVCPUs {
			if r.Metrics.GuestUser[bucket] == 0 {
				ps.fail(1, "%s: %s commits no user instructions in bucket %s", st.lastSub, r.Job.Key(), bucket)
			}
		}
	}
	return ps
}

// --- relia-adaptive ----------------------------------------------------

func reliaSetup(b *bench) (*state, error) {
	spec, err := campaign.Named("relia-adaptive", perfMixes, []uint64{b.seed})
	if err != nil {
		return nil, err
	}
	prec := reliaPrecision
	spec.Precision = &prec
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if len(cells) != 24 {
		return nil, fmt.Errorf("relia-adaptive expands to %d cells, want 24", len(cells))
	}
	newSys, err := warmUp(b)
	if err != nil {
		return nil, err
	}
	return &state{
		subs:   []submission{{name: spec.Name, sc: campaign.QuickScale(), spec: spec}},
		newSys: newSys,
	}, nil
}

func reliaPass(b *bench, st *state, n int) passStats {
	// The op count (waves) is known only after the run; a failed run
	// counts as one failed op.
	ps, res, ok := coldPass(b, st, n, 1)
	if !ok {
		return ps
	}
	// An op is one wave batch.
	ps.ops = res.jobTimes
	ps.attempted = max(1, len(res.jobTimes))
	ps.jobs = res.rs.Misses
	rep := campaign.Attribute(st.lastSub, res.events)
	ps.relia = reliaStats{
		trials: rep.TrialsScheduled, waves: len(res.jobTimes),
		retired: rep.CellsRetired, capped: rep.CellsCapped, savedPct: rep.TrialsSavedPct,
	}
	for _, r := range res.rs.Results {
		ps.relia.faults += r.Metrics.FaultsInjected
	}
	if rep.Cells != len(res.rs.Results) || rep.CellsRetired != rep.Cells {
		ps.fail(1, "%s: %d of %d cells retired or capped", st.lastSub, rep.CellsRetired, rep.Cells)
	}
	var rows []stats.Row
	if err := json.Unmarshal(res.rows, &rows); err != nil {
		ps.fail(1, "%s: decode rows: %v", st.lastSub, err)
		return ps
	}
	dmrRows := 0
	for _, r := range rows {
		if !strings.Contains(r.Key, "/dmr-r") || r.N == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(r.Metric, "relia:coverage:"):
			dmrRows++
			if r.Mean != 1 {
				ps.fail(1, "%s: %s %s = %.4f, want 1.000", st.lastSub, r.Key, r.Metric, r.Mean)
			}
		case strings.HasPrefix(r.Metric, "relia:sdc:"):
			if r.Mean != 0 {
				ps.fail(1, "%s: %s %s = %.4f, want 0", st.lastSub, r.Key, r.Metric, r.Mean)
			}
		}
	}
	if dmrRows == 0 {
		ps.fail(1, "%s: no dmr coverage rows", st.lastSub)
	}
	return ps
}

// --- resubmit-warm -----------------------------------------------------

// warmSubmissions is every registered campaign over all six mixes at
// the fill scale; reliability cells run a single trial.
func warmSubmissions(seed uint64) ([]submission, error) {
	var subs []submission
	for _, name := range campaign.Names() {
		spec, err := campaign.Named(name, workload.Names(), []uint64{seed})
		if err != nil {
			return nil, err
		}
		if spec.Precision != nil {
			prec := warmPrecision
			spec.Precision = &prec
		}
		// The fixed reliability campaign runs one trial per cell, as
		// the adaptive ones do under warmPrecision.
		for i := range spec.Jobs {
			if spec.Jobs[i].Knobs.ReliaTrials > 0 {
				spec.Jobs[i].Knobs.ReliaTrials = 1
			}
		}
		subs = append(subs, submission{name: name, sc: warmScale, spec: spec})
	}
	return subs, nil
}

func warmSetup(b *bench) (*state, error) {
	subs, err := warmSubmissions(b.seed)
	if err != nil {
		return nil, err
	}
	newSys, err := warmUp(b)
	if err != nil {
		return nil, err
	}
	dc, err := campaign.NewDiskCache(b.scratch("cache"))
	if err != nil {
		return nil, err
	}
	eng := campaign.New(campaign.Options{Parallel: b.workers, Cache: dc})
	fill := make(map[string][]byte, len(subs))
	for _, sub := range subs {
		rs, err := eng.RunSpec(b.ctx, sub.sc, sub.spec)
		if err != nil {
			return nil, fmt.Errorf("fill %s: %w", sub.name, err)
		}
		var buf bytes.Buffer
		if err := stats.WriteRowsJSON(&buf, campaign.Summarize(rs)); err != nil {
			return nil, err
		}
		fill[sub.name] = buf.Bytes()
	}
	return &state{subs: subs, cache: dc, fill: fill, newSys: newSys}, nil
}

func warmPass(b *bench, st *state, n int) passStats {
	ps := passStats{attempted: len(st.subs)}
	for _, sub := range st.subs {
		op := fmt.Sprintf("p%d/%s", n, sub.name)
		res := b.submit(sub, b.wrap(st.cache), op)
		// An op is one submission.
		ps.ops = append(ps.ops, res.wall)
		ps.wall += res.wall
		if res.err != nil {
			os.Remove(res.journal)
			ps.fail(1, "%s: %v", op, res.err)
			continue
		}
		if err := ps.record(sub, res); err != nil {
			ps.fail(1, "%v", err)
		}
		ps.jobs += res.rs.Hits
		if res.rs.Misses != 0 || res.rs.Hits == 0 {
			ps.fail(1, "%s: %d hits, %d misses; want every result from the cache", op, res.rs.Hits, res.rs.Misses)
		}
		if !bytes.Equal(res.rows, st.fill[sub.name]) {
			ps.fail(1, "%s: rows differ from the set-up fill", op)
		}
		b.checkSubmission(&ps, res, op)
		st.last, st.lastSub = res.rs, op
	}
	return ps
}

// --- the traced cache --------------------------------------------------

// wrap returns the cache a submission uses: the DiskCache itself, or in
// the traced phase a wrapper that times every call.
func (b *bench) wrap(dc *campaign.DiskCache) campaign.Cache {
	if b.tr == nil {
		return dc
	}
	return &tracedCache{inner: dc, tr: b.tr, timings: &b.cacheT}
}

// cacheTimings are the traced phase's DiskCache call times.
type cacheTimings struct {
	mu         sync.Mutex
	gets, puts []time.Duration
}

// tracedCache records a span around every DiskCache call. Spans of a
// fixed campaign's jobs carry the job's op ID; those of adaptive waves
// carry the submission's.
type tracedCache struct {
	inner   *campaign.DiskCache
	tr      *tracer
	timings *cacheTimings
	parent  int
	op      string
	ops     map[string]string // fingerprint -> op ID
}

// bind points the cache's spans at the submission's engine span. It
// runs before the engine starts its workers.
func (c *tracedCache) bind(parent int, op string, sub submission) {
	c.parent, c.op = parent, op
	c.ops = make(map[string]string, len(sub.jobs))
	for i, j := range sub.jobs {
		c.ops[j.Fingerprint(sub.sc)] = fmt.Sprintf("%s/c%d", op, i)
	}
}

func (c *tracedCache) opOf(key string) string {
	if id, ok := c.ops[key]; ok {
		return id
	}
	return c.op
}

func (c *tracedCache) Get(key string) (core.Metrics, bool) {
	start := time.Now()
	m, ok := c.inner.Get(key)
	end := time.Now()
	c.tr.record("campaign.DiskCache.Get", c.parent, c.opOf(key), start, end)
	c.timings.mu.Lock()
	c.timings.gets = append(c.timings.gets, end.Sub(start))
	c.timings.mu.Unlock()
	return m, ok
}

func (c *tracedCache) Put(key string, m core.Metrics) error {
	start := time.Now()
	err := c.inner.Put(key, m)
	end := time.Now()
	c.tr.record("campaign.DiskCache.Put", c.parent, c.opOf(key), start, end)
	c.timings.mu.Lock()
	c.timings.puts = append(c.timings.puts, end.Sub(start))
	c.timings.mu.Unlock()
	return err
}
