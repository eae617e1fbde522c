package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// adaptiveSpec is a tiny sequential-stopping campaign: three
// fault-injection cells whose coverage proportions sit at roughly 1
// (DMR), 0 (unprotected) and in between (mixed mode), so the stopping
// rule exercises early retirement and the MaxTrials cap in one run.
// Waves of two trials keep every test fast.
func adaptiveSpec() Spec {
	p := Precision{Metric: "coverage", HalfWidth: 0.2, WaveTrials: 2, MinTrials: 2, MaxTrials: 8}
	return Spec{
		Name: "adaptive-test",
		Jobs: []Job{
			{Workload: "apache", Kind: core.KindReunion, Seed: 11, Variant: "dmr-r5000",
				Knobs: Knobs{FaultInterval: 5000}},
			{Workload: "apache", Kind: core.KindNoDMR2X, Seed: 11, Variant: "perf-r5000",
				Knobs: Knobs{FaultInterval: 5000, ForcePAB: true}},
			{Workload: "apache", Kind: core.KindMMMIPC, Seed: 11, Variant: "mixed-r5000",
				Knobs: Knobs{FaultInterval: 5000}},
		},
		Precision: &p,
	}
}

// runSpecRows executes a spec on a runner through RunSpec and renders
// the canonical row bytes.
func runSpecRows(t *testing.T, r Runner, spec Spec) ([]byte, *ResultSet) {
	t.Helper()
	rs, err := r.RunSpec(context.Background(), microScale(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, Summarize(rs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rs
}

func TestPlannerValidation(t *testing.T) {
	sc := microScale()
	spec := adaptiveSpec()

	fixed := spec
	fixed.Precision = nil
	if _, err := newPlanner(sc, fixed); err == nil {
		t.Fatal("planner accepted a spec without a precision block")
	}

	noFaults := spec
	noFaults.Jobs = []Job{{Workload: "apache", Kind: core.KindNoDMR, Seed: 11}}
	if _, err := newPlanner(sc, noFaults); err == nil ||
		!strings.Contains(err.Error(), "fault") {
		t.Fatalf("fault-free cell accepted: %v", err)
	}

	// Two cells that differ only in the trial knobs collapse onto one
	// template — ambiguous, so rejected at plan time.
	dup := spec
	a := spec.Jobs[0]
	b := a
	b.Knobs.ReliaTrials = 99
	dup.Jobs = []Job{a, b}
	if _, err := newPlanner(sc, dup); err == nil ||
		!strings.Contains(err.Error(), "collide") {
		t.Fatalf("trial-knob-only cells accepted: %v", err)
	}

	bad := spec
	badPrec := *spec.Precision
	badPrec.HalfWidth = 0.5
	bad.Precision = &badPrec
	if _, err := newPlanner(sc, bad); err == nil ||
		!strings.Contains(err.Error(), "half_width") {
		t.Fatalf("out-of-bounds half-width accepted: %v", err)
	}
}

// TestAdaptiveDeterminism: the sequential-stopping engine is
// schedule-independent — any parallelism retires every cell at the same
// trial count with byte-identical aggregates, because stopping
// decisions observe only the cell's own waves.
func TestAdaptiveDeterminism(t *testing.T) {
	spec := adaptiveSpec()
	seq, rsSeq := runSpecRows(t, New(Options{Parallel: 1}), spec)
	par, rsPar := runSpecRows(t, New(Options{Parallel: runtime.NumCPU()}), spec)
	if !bytes.Equal(seq, par) {
		t.Fatalf("adaptive runs diverge across parallelism:\nseq: %s\npar: %s", seq, par)
	}
	if len(rsSeq.Results) != len(spec.Jobs) {
		t.Fatalf("got %d results, want one per cell (%d)", len(rsSeq.Results), len(spec.Jobs))
	}
	for i := range rsSeq.Results {
		a, b := rsSeq.Results[i], rsPar.Results[i]
		if a.Job != b.Job {
			t.Fatalf("cell %d realized different trial counts: %+v vs %+v", i, a.Job, b.Job)
		}
	}
}

// TestAdaptiveTrialBounds: every cell retires inside [MinTrials,
// MaxTrials], the merged batch carries exactly the trials the planner
// scheduled, and at least one cell of the extreme-proportion spec stops
// short of the cap — the savings the stopping rule exists for.
func TestAdaptiveTrialBounds(t *testing.T) {
	spec := adaptiveSpec()
	prec := spec.Precision.Normalized()
	_, rs := runSpecRows(t, New(Options{Parallel: 2}), spec)

	early := false
	for _, r := range rs.Results {
		trials := r.Job.Knobs.ReliaTrials
		if trials < prec.MinTrials || trials > prec.MaxTrials {
			t.Fatalf("cell %s realized %d trials, want within [%d, %d]",
				r.Job.Key(), trials, prec.MinTrials, prec.MaxTrials)
		}
		if r.Metrics.Relia == nil || r.Metrics.Relia.Trials != trials {
			t.Fatalf("cell %s merged batch disagrees with the schedule: batch %v, scheduled %d",
				r.Job.Key(), r.Metrics.Relia, trials)
		}
		if trials < prec.MaxTrials {
			early = true
		}
	}
	if !early {
		t.Fatal("no cell retired before MaxTrials; the stopping rule never fired")
	}
}

// TestAdaptiveWarmResume: a warm rerun serves every wave from the
// cache — retired cells re-schedule nothing — and a cache populated to
// a lower trial cap serves exactly the shared wave prefix of a deeper
// rerun, so resumes redo only unfinished waves.
func TestAdaptiveWarmResume(t *testing.T) {
	spec := adaptiveSpec()
	counting := NewCountingCache(mustDiskCache(t, t.TempDir()))

	cold, rsCold := runSpecRows(t, New(Options{Parallel: 2, Cache: counting}), spec)
	_, _, putsCold := counting.Stats()
	coldWaves := rsCold.Misses
	if putsCold != uint64(coldWaves) {
		t.Fatalf("cold run stored %d waves, scheduled %d", putsCold, coldWaves)
	}

	warm, rsWarm := runSpecRows(t, New(Options{Parallel: 2, Cache: counting}), spec)
	if rsWarm.Misses != 0 || rsWarm.Hits != coldWaves {
		t.Fatalf("warm resume simulated %d waves (hits %d), want 0 (%d)",
			rsWarm.Misses, rsWarm.Hits, coldWaves)
	}
	for _, r := range rsWarm.Results {
		if !r.CacheHit {
			t.Fatalf("retired cell %s not marked cache-hit on warm resume", r.Job.Key())
		}
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm resume not byte-identical to cold run")
	}
	if _, _, puts := counting.Stats(); puts != putsCold {
		t.Fatalf("warm resume stored %d new waves, want none", puts-putsCold)
	}

	// Partial warmth: a run capped at 4 trials leaves the first two
	// 2-trial waves of every cell in the cache. Deepening the cap to 8
	// (with a target no cell can meet) must hit exactly that prefix and
	// simulate only the waves beyond it.
	shallow := adaptiveSpec()
	p1 := *shallow.Precision
	p1.HalfWidth = 0.001 // unreachable at these trial caps: every cell caps out
	p1.MaxTrials = 4
	shallow.Precision = &p1
	part := NewCountingCache(mustDiskCache(t, t.TempDir()))
	_, rsShallow := runSpecRows(t, New(Options{Parallel: 2, Cache: part}), shallow)
	if rsShallow.Misses != 2*len(shallow.Jobs) {
		t.Fatalf("shallow run scheduled %d waves, want %d", rsShallow.Misses, 2*len(shallow.Jobs))
	}

	deep := adaptiveSpec()
	p2 := p1
	p2.MaxTrials = 8
	deep.Precision = &p2
	_, rsDeep := runSpecRows(t, New(Options{Parallel: 2, Cache: part}), deep)
	if want := 2 * len(deep.Jobs); rsDeep.Hits != want {
		t.Fatalf("deep resume hit %d waves, want the %d-wave shared prefix", rsDeep.Hits, want)
	}
	if want := 2 * len(deep.Jobs); rsDeep.Misses != want {
		t.Fatalf("deep resume simulated %d waves, want only the %d new ones", rsDeep.Misses, want)
	}
}

// TestAdaptiveMatchesFixedTrials: scheduling a cell's trials in waves
// is an implementation detail — a cell capped at N trials merges to
// the same outcome counts as a fixed-batch job running the same N
// trials in one go (log digests aside, which are per-batch).
func TestAdaptiveMatchesFixedTrials(t *testing.T) {
	spec := adaptiveSpec()
	p := *spec.Precision
	p.HalfWidth = 0.001 // force every cell to its cap
	p.MaxTrials = 6
	spec.Precision = &p
	_, rs := runSpecRows(t, New(Options{Parallel: 2}), spec)

	fixed := make([]Job, len(spec.Jobs))
	for i, j := range spec.Jobs {
		j.Knobs.ReliaTrials = 6
		fixed[i] = j
	}
	rsFixed, err := New(Options{Parallel: 2}).Run(context.Background(), microScale(), fixed)
	if err != nil {
		t.Fatal(err)
	}

	for i := range rs.Results {
		a, b := rs.Results[i].Metrics.Relia, rsFixed.Results[i].Metrics.Relia
		if a == nil || b == nil {
			t.Fatalf("cell %d missing a batch", i)
		}
		aa, bb := *a, *b
		aa.LogDigest, bb.LogDigest = "", ""
		ab, _ := json.Marshal(aa)
		fb, _ := json.Marshal(bb)
		if !bytes.Equal(ab, fb) {
			t.Fatalf("cell %d wave-merged aggregate diverges from one fixed batch:\nwaves: %s\nfixed: %s",
				i, ab, fb)
		}
	}
}

// TestAdaptiveDistributedMatchesLocal: an adaptive campaign sharded
// across two workers retires every cell at the same trial counts with
// byte-identical rows to the local engine — wave-shaped determinism
// survives the lease board.
func TestAdaptiveDistributedMatchesLocal(t *testing.T) {
	spec := adaptiveSpec()
	local, rsLocal := runSpecRows(t, New(Options{Parallel: 2}), spec)

	_, ts1 := startWorker(t, "w1", 2, nil)
	_, ts2 := startWorker(t, "w2", 2, nil)
	remote, rs := runSpecRows(t, dispatcherFor(nil, 2*time.Second, ts1.URL, ts2.URL), spec)

	if !bytes.Equal(local, remote) {
		t.Fatalf("distributed adaptive run diverges from local:\nlocal: %s\nremote: %s", local, remote)
	}
	for i := range rs.Results {
		if rs.Results[i].Job != rsLocal.Results[i].Job {
			t.Fatalf("cell %d trial counts diverge: local %+v, remote %+v",
				i, rsLocal.Results[i].Job, rs.Results[i].Job)
		}
	}
	if rs.Hits != 0 {
		t.Fatalf("cold distributed run reported %d cache hits", rs.Hits)
	}
}

// TestAdaptiveWorkerKilledMidWave: killing a worker mid-campaign
// reassigns its expired wave leases without double-counting any trials
// — the completed-wave dedup means each wave feeds the stopping rule
// exactly once, so the outcome is byte-identical to a local run and
// the cache holds exactly one entry per scheduled wave.
func TestAdaptiveWorkerKilledMidWave(t *testing.T) {
	spec := adaptiveSpec()
	local, _ := runSpecRows(t, New(Options{Parallel: 2}), spec)

	victim, ts1 := startWorker(t, "victim", 2, nil)
	_, ts2 := startWorker(t, "survivor", 2, nil)
	counting := NewCountingCache(mustDiskCache(t, t.TempDir()))

	d := NewDispatcher(DispatchOptions{
		Workers:  []string{ts1.URL, ts2.URL},
		Cache:    counting,
		LeaseTTL: 400 * time.Millisecond,
	})
	type outcome struct {
		rows []byte
		rs   *ResultSet
		err  error
	}
	res := make(chan outcome, 1)
	go func() {
		rs, err := d.RunSpec(context.Background(), microScale(), spec)
		if err != nil {
			res <- outcome{nil, nil, err}
			return
		}
		var buf bytes.Buffer
		err = stats.WriteRowsJSON(&buf, Summarize(rs))
		res <- outcome{buf.Bytes(), rs, err}
	}()

	time.Sleep(100 * time.Millisecond)
	victim.Stop()

	select {
	case out := <-res:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !bytes.Equal(local, out.rows) {
			t.Fatalf("adaptive campaign after worker death diverges:\nlocal: %s\nremote: %s",
				local, out.rows)
		}
		if _, _, puts := counting.Stats(); puts != uint64(out.rs.Misses) {
			t.Fatalf("stored %d wave results for %d simulated waves: a revoked lease was double-counted",
				puts, out.rs.Misses)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("adaptive campaign did not recover from worker death")
	}
}

// TestAdaptiveJournalAndAttribution: an adaptive run's journal
// validates, replays to the live result set, and attributes the
// trials-saved-vs-fixed win and the wall time of every wave.
func TestAdaptiveJournalAndAttribution(t *testing.T) {
	spec := adaptiveSpec()
	prec := spec.Precision.Normalized()
	jnl, err := NewJournal("adpt1", "")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Parallel: 2, Journal: jnl})
	rows, rs := runSpecRows(t, eng, spec)
	jnl.Finish(nil)

	events := jnl.Events()
	chk, err := ValidateEvents(events)
	if err != nil {
		t.Fatalf("adaptive journal invalid: %v", err)
	}
	if !chk.Complete || chk.Outcome != "done" {
		t.Fatalf("journal check: %+v", chk)
	}
	types := journalTypes(events)
	cells := len(spec.Jobs)
	if types[EventCellRetired] != cells {
		t.Fatalf("%d cell_retired events, want %d", types[EventCellRetired], cells)
	}
	if types[EventWaveScheduled] < cells {
		t.Fatalf("%d wave_scheduled events, want at least one per cell", types[EventWaveScheduled])
	}
	if types[EventMerged] != cells {
		t.Fatalf("%d merged events, want %d", types[EventMerged], cells)
	}

	// Every retirement either met the target or declared the cap.
	scheduled := 0
	for i := range events {
		switch events[i].Type {
		case EventWaveScheduled:
			scheduled += events[i].Trials
		case EventCellRetired:
			if !events[i].Capped && events[i].HalfWidth > prec.HalfWidth {
				t.Fatalf("cell %s retired at half-width %.3f above target %.3f without capping",
					events[i].Key, events[i].HalfWidth, prec.HalfWidth)
			}
		}
	}

	replayed, err := ReplayResults(events)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stats.WriteRowsJSON(&buf, Summarize(replayed)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rows, buf.Bytes()) {
		t.Fatalf("journal replay diverges from live run:\nlive: %s\nreplay: %s", rows, buf.Bytes())
	}
	// Each merged event carries the cell's result as the run returned
	// it, realized trial count included, and no fingerprint: the
	// wave-merged aggregate never ran as one job.
	for i := range replayed.Results {
		if got, want := replayed.Results[i].Job, rs.Results[i].Job; got != want {
			t.Fatalf("merged cell %d job %+v, live %+v", i, got, want)
		}
	}
	for i := range events {
		if events[i].Type == EventMerged && events[i].Fp != "" {
			t.Fatalf("adaptive merged event carries a fingerprint: %+v", events[i])
		}
	}

	rep := Attribute("adpt1", events)
	if !rep.Adaptive {
		t.Fatal("report not marked adaptive")
	}
	if rep.TrialsScheduled != scheduled {
		t.Fatalf("report scheduled %d trials, journal says %d", rep.TrialsScheduled, scheduled)
	}
	if rep.TrialsFixed != cells*prec.MaxTrials {
		t.Fatalf("fixed-equivalent %d trials, want cells x MaxTrials = %d",
			rep.TrialsFixed, cells*prec.MaxTrials)
	}
	if rep.CellsRetired != cells {
		t.Fatalf("report retired %d cells, want %d", rep.CellsRetired, cells)
	}
	if rep.TrialsSavedPct <= 0 {
		t.Fatalf("adaptive run saved %.1f%% trials, want a positive saving on this spec",
			rep.TrialsSavedPct)
	}
	total := 0
	for _, r := range rs.Results {
		total += r.Job.Knobs.ReliaTrials
	}
	if total != scheduled {
		t.Fatalf("realized %d trials, journal scheduled %d", total, scheduled)
	}

	// Job time is attributed per simulated wave: every group and every
	// straggler carries the wall time and worker of a real completion.
	if len(rep.Groups) == 0 || len(rep.Stragglers) == 0 {
		t.Fatalf("no groups or stragglers: %+v / %+v", rep.Groups, rep.Stragglers)
	}
	for _, g := range rep.Groups {
		if g.Max <= 0 {
			t.Fatalf("group %s attributed no job time: %+v", g.Group, g)
		}
	}
	for _, c := range rep.Stragglers {
		if c.Seconds <= 0 || c.Worker == "" {
			t.Fatalf("straggler without time or worker: %+v", c)
		}
	}
}

// TestAdaptiveCancel: cancelling an adaptive run mid-flight returns
// promptly with the context error instead of wedging on the board.
func TestAdaptiveCancel(t *testing.T) {
	spec := adaptiveSpec()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once bool
	eng := New(Options{Parallel: 1, OnProgress: func(done, total, hits int) {
		if !once {
			once = true
			close(started)
		}
	}})
	// Progress fires on cell retirement; cancel right after the first.
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.RunSpec(ctx, microScale(), spec)
		errCh <- err
	}()
	select {
	case <-started:
	case <-time.After(2 * time.Minute):
		t.Fatal("adaptive run never made progress")
	}
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("cancelled adaptive run returned nil")
		}
	case <-time.After(time.Minute):
		t.Fatal("cancelled adaptive run did not return")
	}
}
