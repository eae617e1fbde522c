package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/relia"
	"repro/internal/stats"
)

// The campaign scheduler: one run loop for every campaign, fixed or
// adaptive, local or remote.
//
// A campaign is a list of cells. The planner decides what runs: it
// mints each cell's waves and retires the cell once it has seen
// enough of them. The board is the queue: misses wait in its pending
// list, highest priority first, and each completion may add the cell's
// next wave through its expand hook. A transport decides only where a
// leased job runs — in-process slots (Engine) or a fleet of workers
// over the lease protocol (Dispatcher). Every finished wave, whether
// simulated or served from the cache, passes through one completion
// path, which fills the cache, feeds the planner, journals and reports
// progress.
//
// A fixed campaign is the degenerate adaptive one: one wave per cell
// (the job itself, knobs untouched), no stopping rule, and the cell
// retires on its first completion. Every cell has the same priority,
// so fixed jobs lease in FIFO expansion order.
//
// Adaptive-precision campaigns do sequential stopping in waves. A
// fixed-batch campaign spends the same trial budget on every cell, so
// the budget is sized for the hardest cell and most of it is wasted on
// cells whose proportions are nowhere near p=0.5. An adaptive campaign
// instead declares a target precision (a Wilson half-width on coverage
// or SDC probability) and lets each cell run just enough trials: the
// planner expands every cell into deterministic waves of trials,
// applies the stopping rule after each wave, and retires the cell the
// moment its interval is narrow enough — or caps it at MaxTrials,
// which Precision.Normalized defaults to the worst-case (p=0.5) trial
// count, so every cell terminates within the target.
//
// Determinism is wave-shaped, not schedule-shaped. Wave k of a cell
// always covers the same global trial indices ([offset, offset+size)),
// each wave job's fingerprint derives from (cell fingerprint, wave
// index, offset), and trial seeds derive from the global index — so
// cached, resumed and distributed runs are byte-identical at equal
// target precision, whatever order the scheduler ran the waves in.
// Cells are independent: each one observes only its own waves, so
// cross-cell completion order cannot change any stopping decision.
// There is no global barrier — a cell's next wave is schedulable the
// instant its previous wave lands, while other cells' waves are still
// in flight, and freed capacity flows to the widest intervals first.

// cellTemplate strips the wave-scheduling knobs off a job, leaving the
// wave-invariant cell identity: every wave of one adaptive cell — and
// the cell's original expanded job, whatever fixed trial count it
// declared — maps to the same template.
func cellTemplate(j Job) Job {
	j.Knobs.ReliaTrials = 0
	j.Knobs.Wave = 0
	j.Knobs.TrialOffset = 0
	return j
}

// cellState tracks one cell's progress. All access is serialized by
// the board's mutex (or happens before the board starts).
type cellState struct {
	template Job
	wave     int // waves scheduled so far
	trials   int // trials scheduled so far
	waves    int // waves completed so far
	hits     int // completed waves served from the cache
	cycles   uint64
	faults   uint64
	batches  []*core.ReliaBatch // adaptive: completed waves, in wave order
	last     core.Metrics       // fixed: the cell's one completion
	half     float64            // Wilson half-width after the last completed wave
	retired  bool
	capped   bool // retired at MaxTrials instead of at target
}

// planner is the wave state machine: it decides what runs (which cell
// gets its next wave) and when a cell retires. The caller decides
// where. The planner holds no lock of its own.
type planner struct {
	sc    Scale
	prec  *Precision // nil: a fixed campaign
	cells []*cellState
}

// planSpec plans a whole spec: adaptive when it carries a precision
// block, fixed otherwise.
func planSpec(sc Scale, spec Spec) (*planner, error) {
	if spec.Precision != nil {
		return newPlanner(sc, spec)
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return fixedPlanner(sc, jobs), nil
}

// fixedPlanner plans an expanded job set: one cell per job, in order.
func fixedPlanner(sc Scale, jobs []Job) *planner {
	p := &planner{sc: sc, cells: make([]*cellState, len(jobs))}
	for i, j := range jobs {
		p.cells[i] = &cellState{template: j, half: 1}
	}
	return p
}

// newPlanner validates and expands an adaptive spec. Every expanded
// job must be a fault-injection cell (the stopping rule is a Wilson
// interval over fault outcomes; a cell that injects nothing can never
// converge) and cells must stay distinct after the trial knobs are
// stripped.
func newPlanner(sc Scale, spec Spec) (*planner, error) {
	if spec.Precision == nil {
		return nil, fmt.Errorf("campaign: spec %q has no precision block", spec.Name)
	}
	prec := spec.Precision.Normalized()
	if err := prec.Validate(); err != nil {
		return nil, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("campaign: adaptive spec %q expands to no cells", spec.Name)
	}
	p := &planner{sc: sc, prec: &prec}
	seen := make(map[Job]bool, len(jobs))
	for _, j := range jobs {
		if j.Knobs.FaultInterval <= 0 {
			return nil, fmt.Errorf(
				"campaign: adaptive precision needs fault-injection cells: job %s has no fault_interval",
				j.Key())
		}
		t := cellTemplate(j)
		if seen[t] {
			return nil, fmt.Errorf(
				"campaign: adaptive cells collide on %s after dropping trial knobs (cells may not differ only in relia_trials)",
				j.Key())
		}
		seen[t] = true
		p.cells = append(p.cells, &cellState{template: t, half: 1})
	}
	return p, nil
}

// start schedules the first wave of every cell.
func (p *planner) start() []boardJob {
	jobs := make([]boardJob, len(p.cells))
	for i, c := range p.cells {
		jobs[i] = boardJob{job: p.nextWave(c), cell: i}
	}
	return jobs
}

// nextWave mints the cell's next wave job. A fixed cell's one wave is
// its job; an adaptive wave carries its 1-based index and a trial
// offset continuing where the previous wave ended, sized so the cell
// never exceeds MaxTrials.
func (p *planner) nextWave(c *cellState) Job {
	c.wave++
	j := c.template
	if p.prec == nil {
		return j
	}
	size := p.prec.WaveTrials
	if rem := p.prec.MaxTrials - c.trials; size > rem {
		size = rem
	}
	j.Knobs.Wave = c.wave
	j.Knobs.TrialOffset = c.trials
	j.Knobs.ReliaTrials = size
	c.trials += size
	return j
}

// halfWidth evaluates the stopping metric over the cell's merged waves.
// With no exposed faults yet, Wilson reports the vacuous [0,1] interval
// (half-width 0.5): the cell keeps scheduling until data arrives or
// MaxTrials caps it — no precision claim without observations.
func (p *planner) halfWidth(c *cellState) float64 {
	merged := relia.MergeBatches(c.batches)
	if merged == nil {
		return 1
	}
	covered, exposed := relia.Coverage(merged, "")
	num := covered
	if p.prec.Metric == "sdc" {
		num = exposed - covered
	}
	return stats.WilsonHalfWidth(num, exposed)
}

// observe folds one completed wave into its cell and reports the
// cell's next wave, if any. A fixed cell retires on its first
// completion. An adaptive cell applies the stopping rule: retire when
// the interval is inside the target (and MinTrials guards against a
// lucky first wave), cap at MaxTrials, otherwise schedule the next
// wave. Waves of one cell are strictly sequential — only one wave of a
// cell is ever in flight — so batches accumulate in wave order and the
// merged aggregate equals a single batch of the same trials.
func (p *planner) observe(cell int, m core.Metrics, hit bool) (next Job, more bool, err error) {
	c := p.cells[cell]
	if c.retired {
		return Job{}, false, fmt.Errorf("campaign: wave completion for retired cell %s", c.template.Key())
	}
	c.waves++
	if hit {
		c.hits++
	}
	if p.prec == nil {
		c.last, c.retired = m, true
		return Job{}, false, nil
	}
	if m.Relia == nil {
		return Job{}, false, fmt.Errorf("campaign: wave of cell %s carried no trial batch", c.template.Key())
	}
	c.batches = append(c.batches, m.Relia)
	c.cycles += m.Cycles
	c.faults += m.FaultsInjected
	c.half = p.halfWidth(c)
	switch {
	case c.trials >= p.prec.MinTrials && c.half <= p.prec.HalfWidth:
		c.retired = true
	case c.trials >= p.prec.MaxTrials:
		c.retired, c.capped = true, true
	}
	if c.retired {
		return Job{}, false, nil
	}
	return p.nextWave(c), true, nil
}

// mergedResult renders a retired cell as one campaign Result. A fixed
// cell is its one completion. An adaptive cell is the template job
// (with the realized trial count — Key ignores it, so aggregation is
// unaffected), wave batches merged in wave order, and the additive
// counters summed. A cell counts as a cache hit only when every one of
// its waves came from the cache — then a warm resume re-simulated
// nothing.
func (p *planner) mergedResult(c *cellState) Result {
	hit := c.waves > 0 && c.hits == c.waves
	if p.prec == nil {
		return Result{Job: c.template, Metrics: c.last, CacheHit: hit}
	}
	j := c.template
	j.Knobs.ReliaTrials = c.trials
	return Result{
		Job: j,
		Metrics: core.Metrics{
			Kind:           c.template.Kind,
			Workload:       c.template.Workload,
			Cycles:         c.cycles,
			FaultsInjected: c.faults,
			Relia:          relia.MergeBatches(c.batches),
		},
		CacheHit: hit,
	}
}

// results returns every cell's merged result in expansion order,
// erroring if any cell is still open (an internal scheduling bug —
// MaxTrials guarantees termination, so an open cell at campaign end
// means waves were lost).
func (p *planner) results() ([]Result, error) {
	out := make([]Result, len(p.cells))
	for i, c := range p.cells {
		if !c.retired {
			return nil, fmt.Errorf("campaign: internal: cell %s still open at campaign end", c.template.Key())
		}
		out[i] = p.mergedResult(c)
	}
	return out, nil
}

// scheduler runs one planned campaign. Its counters are touched only
// by the completion path, which the board serializes.
type scheduler struct {
	plan       *planner
	cache      Cache
	jnl        *Journal
	onProgress func(done, total, hits int)

	waves, hitWaves int // completed waves, and those served from the cache
	retired, hits   int // retired cells, and those whose every wave hit
}

// transport decides where a campaign's leased jobs run: it builds the
// board for the campaign's misses and serves it until the board
// closes, returning the board's terminal error.
type transport interface {
	board(sc Scale) *board
	serve(ctx context.Context, b *board) error
}

// schedule runs a planned campaign to the end and returns its results
// in expansion order. Cache hits resolve serially as each frontier is
// scheduled; the misses go on a board that t serves. Cancelling ctx
// closes the board, which revokes every outstanding lease before serve
// returns.
func schedule(ctx context.Context, p *planner, t transport, c Cache, jnl *Journal,
	onProgress func(done, total, hits int)) (*ResultSet, error) {
	start := time.Now()
	s := &scheduler{plan: p, cache: c, jnl: jnl, onProgress: onProgress}
	jnl.begin(p.sc, len(p.cells), p.prec)
	misses, err := s.frontier(p.start())
	if err != nil {
		return nil, err
	}
	if len(misses) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := t.board(p.sc)
		b.jnl = jnl
		b.expand = func(bj boardJob, m core.Metrics) ([]boardJob, error) {
			next, err := s.complete(bj, m, false)
			if err != nil {
				return nil, err
			}
			return s.frontier(next)
		}
		b.add(misses)
		stop := context.AfterFunc(ctx, func() { b.close(ctx.Err()) })
		err := t.serve(ctx, b)
		stop()
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := p.results()
	if err != nil {
		return nil, err
	}
	return &ResultSet{
		Scale:   p.sc,
		Results: results,
		Hits:    s.hitWaves,
		Misses:  s.waves - s.hitWaves,
		Wall:    time.Since(start),
	}, nil
}

// frontier journals freshly scheduled waves and resolves their cache
// hits inline. Hits chain: a warm cache can retire a cell — or carry
// it several waves forward — without any transport seeing it, which is
// why a warm resume re-schedules only unfinished waves. The misses
// come back for the board's queue, each carrying its fingerprint and
// its cell's current half-width as priority.
func (s *scheduler) frontier(todo []boardJob) ([]boardJob, error) {
	var misses []boardJob
	for len(todo) > 0 {
		bj := todo[0]
		todo = todo[1:]
		bj.fp = bj.job.Fingerprint(s.plan.sc)
		bj.prio = s.plan.cells[bj.cell].half
		if s.plan.prec != nil {
			s.jnl.WaveScheduled(bj.cell, bj.job, bj.prio)
		}
		if s.cache != nil {
			if m, ok := s.cache.Get(bj.fp); ok {
				s.jnl.CacheHit(bj.cell, bj.job)
				next, err := s.complete(bj, m, true)
				if err != nil {
					return nil, err
				}
				todo = append(todo, next...)
				continue
			}
		}
		misses = append(misses, bj)
	}
	return misses, nil
}

// complete is the one completion path: it stores a simulated wave in
// the cache, feeds the planner, and on retirement journals the cell
// and reports progress in retired cells. It returns the cell's next
// wave, not yet scheduled.
func (s *scheduler) complete(bj boardJob, m core.Metrics, hit bool) ([]boardJob, error) {
	if !hit && s.cache != nil {
		if err := s.cache.Put(bj.fp, m); err != nil {
			return nil, err
		}
	}
	s.waves++
	if hit {
		s.hitWaves++
	}
	p := s.plan
	next, more, err := p.observe(bj.cell, m, hit)
	if err != nil {
		return nil, err
	}
	if more {
		return []boardJob{{job: next, cell: bj.cell}}, nil
	}
	c := p.cells[bj.cell]
	fp := bj.fp
	if p.prec != nil {
		// An adaptive aggregate never ran as one job: no single cache
		// entry corresponds to it.
		fp = ""
		s.jnl.CellRetired(bj.cell, c.template, c.trials, c.half, c.capped)
	}
	s.jnl.CellMerged(bj.cell, p.mergedResult(c), fp)
	s.retired++
	if c.hits == c.waves {
		s.hits++
	}
	if s.onProgress != nil {
		s.onProgress(s.retired, len(p.cells), s.hits)
	}
	return nil, nil
}
