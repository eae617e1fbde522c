// Package exp defines the paper's experiments: one function per table
// and figure of the evaluation (Section 5), each a named campaign run
// through internal/campaign's engine and rendered into the same
// rows/series the paper reports. cmd/mmmbench and the repository-level
// benchmarks are thin wrappers around this package; cmd/mmmd serves
// the same campaigns over HTTP.
package exp

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config scales the experiments. The paper simulates 100M cycles per
// run with 3M-cycle (1 ms) timeslices; that is hours of host time for
// a full sweep, so the defaults use shorter, proportionally scaled
// windows. Quick() shrinks further for smoke tests.
type Config struct {
	Warmup    sim.Cycle
	Measure   sim.Cycle
	Timeslice sim.Cycle // consolidated-server gang timeslice
	Seeds     []uint64
	Parallel  int // concurrent simulations (independent chips)

	// Workloads restricts the sweep to a subset of workload names;
	// empty means all six.
	Workloads []string

	// Policies restricts the mode-policy axis of the policy study;
	// empty means the static baseline plus every registered dynamic
	// policy. Entries are policy specs (internal/mode), "" meaning the
	// static default.
	Policies []string

	// Cache, when non-nil, serves repeated jobs from the campaign
	// result cache instead of re-simulating.
	Cache campaign.Cache

	// Runner, when non-nil, executes campaigns instead of a local
	// engine — mmmbench -workers installs the fleet dispatcher here.
	// The Runner contract guarantees the tables come out
	// byte-identical either way.
	Runner campaign.Runner

	// Precision, when non-nil, switches the reliability study to
	// sequential stopping: each cell's trials are scheduled in waves
	// until its 95% Wilson interval on coverage is within the target
	// half-width (or the cell hits its trial cap). Experiments that
	// inject no faults ignore it.
	Precision *campaign.Precision

	// ReliaTrials overrides the fixed per-cell trial count of the
	// reliability study (0 = the registered default). It is how a
	// fixed-batch run is sized to the same worst-case budget an
	// adaptive run stops within — the nightly fixed-vs-adaptive
	// comparison. Ignored when Precision is set: adaptive cells get
	// their trial counts from the stopping rule.
	ReliaTrials int
}

// fromScale builds a Config from a campaign preset, so mmmbench and
// mmmd resolve "default"/"quick" to the same jobs and cache entries.
func fromScale(sc campaign.Scale, seeds []uint64) Config {
	return Config{
		Warmup:    sc.Warmup,
		Measure:   sc.Measure,
		Timeslice: sc.Timeslice,
		Seeds:     seeds,
		Parallel:  runtime.NumCPU(),
	}
}

// Default returns the standard experiment scale: enough cycles for
// steady-state caches and several gang timeslices, two seeds for
// confidence intervals.
func Default() Config {
	return fromScale(campaign.DefaultScale(), campaign.DefaultSeeds())
}

// Quick returns a reduced scale for smoke testing (-short).
func Quick() Config {
	return fromScale(campaign.QuickScale(), campaign.QuickSeeds())
}

// Scale returns the campaign scale of the config.
func (c Config) Scale() campaign.Scale {
	return campaign.Scale{Warmup: c.Warmup, Measure: c.Measure, Timeslice: c.Timeslice}
}

// workloads returns the workload axis: the configured subset, or all.
func (c Config) workloads() []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return workload.Names()
}

// runAll executes jobs on the campaign engine and returns metrics
// grouped by aggregation key.
func (c Config) runAll(jobs []campaign.Job) (map[string][]core.Metrics, error) {
	rs, err := c.runSet(jobs)
	if err != nil {
		return nil, err
	}
	return rs.ByKey(), nil
}

// runSet executes jobs on the configured runner (the local campaign
// engine unless a remote dispatcher is installed).
func (c Config) runSet(jobs []campaign.Job) (*campaign.ResultSet, error) {
	r := c.Runner
	if r == nil {
		r = campaign.New(campaign.Options{Parallel: c.Parallel, Cache: c.Cache})
	}
	return r.Run(context.Background(), c.Scale(), jobs)
}

// runSpec executes a whole spec on the configured runner: adaptive
// precision specs run with sequential stopping, everything else as
// its expanded job set, like runSet.
func (c Config) runSpec(spec campaign.Spec) (*campaign.ResultSet, error) {
	r := c.Runner
	if r == nil {
		r = campaign.New(campaign.Options{Parallel: c.Parallel, Cache: c.Cache})
	}
	return r.RunSpec(context.Background(), c.Scale(), spec)
}

// named expands the registered campaign spec under this config's axes
// and runs it.
func (c Config) named(name string) (map[string][]core.Metrics, error) {
	spec, err := campaign.Named(name, c.workloads(), c.Seeds)
	if err != nil {
		return nil, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return c.runAll(jobs)
}

// key builds a deterministic result key (campaign.Job.Key format).
func key(wl string, kind core.Kind, variant string) string {
	return campaign.Job{Workload: wl, Kind: kind, Variant: variant}.Key()
}

// sampleOf folds a metric extractor over a key's runs.
func sampleOf(ms []core.Metrics, f func(*core.Metrics) float64) *stats.Sample {
	s := &stats.Sample{}
	for i := range ms {
		s.Add(f(&ms[i]))
	}
	return s
}

// fmtRatio renders a normalized value with its CI when available.
func fmtRatio(s *stats.Sample) string {
	if s.N() > 1 {
		return fmt.Sprintf("%.3f ±%.3f", s.Mean(), s.CI95())
	}
	return fmt.Sprintf("%.3f", s.Mean())
}
