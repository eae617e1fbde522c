package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/paging"
	"repro/internal/relia"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The probes of the traced run call into the simulator and campaign
// layers directly, with a span around every call, to split a workload's
// time by layer. They run after the traced passes, one call at a time.

// layerMetrics holds a traced run's per-layer figures by name.
type layerMetrics map[string]float64

// kindLabels names the kinds as the per-layer metrics do.
var kindLabels = map[core.Kind]string{
	core.KindNoDMR2X:  "no-dmr-2x",
	core.KindNoDMR:    "no-dmr",
	core.KindReunion:  "reunion",
	core.KindDMRBase:  "dmr-base",
	core.KindMMMIPC:   "mmm-ipc",
	core.KindMMMTP:    "mmm-tp",
	core.KindSingleOS: "single-os",
}

// nsPerCycleLabels are the chips core.ns_per_cycle.<label> is reported
// for: every kind under its static plans, and MMM-IPC under the
// utilization policy.
var nsPerCycleLabels = []string{
	"no-dmr-2x", "no-dmr", "reunion", "dmr-base", "mmm-ipc", "mmm-tp", "single-os", "mmm-ipc.utilization",
}

// chipLabel is the kind label, with the policy appended when one is set.
func chipLabel(k core.Kind, policy string) string {
	if policy == "" {
		return kindLabels[k]
	}
	return kindLabels[k] + "." + policy
}

// chipRun is one chip the benchmark built and ran itself.
type chipRun struct {
	label                 string
	newSys, warm, meas    time.Duration
	cycles                uint64 // measurement window
	m                     core.Metrics
	tlbLookups, tlbMisses uint64 // over the measurement window
}

// runChip builds a chip and runs its warm-up and measurement windows
// the way the engine's jobs do, timing NewSystem, each Run and Collect.
// A non-nil plan injects faults over the measurement window, as a
// reliability trial does.
func (b *bench) runChip(label, op string, opts core.Options, warmup, measure sim.Cycle, plan *fault.Plan) (chipRun, error) {
	cr := chipRun{label: label, cycles: uint64(measure)}
	root := b.tr.begin("bench.probe.chip", -1, op)
	defer b.tr.end(root)

	id := b.tr.begin("core.NewSystem", root, op)
	start := time.Now()
	chip, err := core.NewSystem(opts)
	cr.newSys = time.Since(start)
	b.tr.end(id)
	if err != nil {
		return cr, fmt.Errorf("%s: %w", op, err)
	}
	defer chip.Release()

	id = b.tr.begin("core.Chip.Run", root, op)
	start = time.Now()
	chip.Run(warmup)
	cr.warm = time.Since(start)
	b.tr.end(id)

	if plan != nil {
		relia.Attach(chip)
		inj := fault.NewInjector(*plan)
		inj.Rebase(chip.Now)
		chip.Injector = inj
	}
	chip.ResetMeasurement()
	var lookups, misses uint64
	for _, c := range chip.Cores {
		lookups, misses = lookups+c.TLB.Lookups, misses+c.TLB.Misses
	}
	from := chip.Now

	id = b.tr.begin("core.Chip.Run", root, op)
	start = time.Now()
	chip.Run(measure)
	cr.meas = time.Since(start)
	b.tr.end(id)

	id = b.tr.begin("core.Chip.Collect", root, op)
	cr.m = chip.Collect(chip.Now - from)
	b.tr.end(id)
	for _, c := range chip.Cores {
		cr.tlbLookups += c.TLB.Lookups
		cr.tlbMisses += c.TLB.Misses
	}
	cr.tlbLookups -= lookups
	cr.tlbMisses -= misses
	return cr, nil
}

// sweepProbe re-runs, chip by chip, the sweep's jobs that the
// ns-per-cycle metrics name, and checks that each chip's metrics equal
// the engine's result for the same job.
func sweepProbe(b *bench, st *state, lm layerMetrics) error {
	if err := campaignProbe(b, st, lm); err != nil {
		return err
	}
	if st.last == nil {
		return fmt.Errorf("probe: no successful pass to compare against")
	}
	sub := st.subs[0]
	results := make(map[campaign.Job]core.Metrics, len(st.last.Results))
	for _, r := range st.last.Results {
		results[r.Job] = r.Metrics
	}
	rec := cache.NewRecycler()
	var runs []chipRun
	for _, j := range sub.jobs {
		label := chipLabel(j.Kind, j.Knobs.Policy)
		if !slices.Contains(nsPerCycleLabels, label) {
			continue
		}
		wl, err := workload.ByName(j.Workload)
		if err != nil {
			return err
		}
		cfg := sim.DefaultConfig()
		cfg.TimesliceCycles = sub.sc.Timeslice
		j.Knobs.Apply(cfg)
		cr, err := b.runChip(label, "probe/"+j.Key(), core.Options{
			Cfg: cfg, Kind: j.Kind, Workload: wl, Seed: j.SimSeed(), Policy: j.Knobs.Policy,
			PABDisabled: j.Knobs.PABDisabled, ForcePAB: j.Knobs.ForcePAB, Recycler: rec,
		}, sub.sc.Warmup, sub.sc.Measure, nil)
		if err != nil {
			return err
		}
		got, err1 := json.Marshal(cr.m)
		want, err2 := json.Marshal(results[j])
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("probe %s: chip metrics differ from the engine's result", j.Key())
		}
		runs = append(runs, cr)
	}
	chipMetrics(lm, runs)
	return replayProbe(b, lm)
}

// reliaProbe rebuilds the first trial of every cell at the lower fault
// interval, with the trial's windows, to split a trial into set-up
// (NewSystem and the warm-up Run) and measurement.
func reliaProbe(b *bench, st *state, lm layerMetrics) error {
	if err := campaignProbe(b, st, lm); err != nil {
		return err
	}
	sub := st.subs[0]
	cells, err := sub.spec.Expand()
	if err != nil {
		return err
	}
	warmup, measure, timeslice := relia.TrialWindows(sub.sc.Warmup, sub.sc.Measure, campaign.DefaultReliaTrials)
	rate := campaign.DefaultFaultRates()[0]
	rec := cache.NewRecycler()
	var runs []chipRun
	var setup, total time.Duration
	for _, j := range cells {
		if j.Knobs.FaultInterval != rate {
			continue
		}
		wl, err := workload.ByName(j.Workload)
		if err != nil {
			return err
		}
		cfg := sim.DefaultConfig()
		j.Knobs.Apply(cfg)
		cfg.TimesliceCycles = timeslice
		seed := sim.DeriveSeed(j.SimSeed(), "relia-trial", "0")
		cr, err := b.runChip(chipLabel(j.Kind, j.Knobs.Policy), "probe/"+j.Key(), core.Options{
			Cfg: cfg, Kind: j.Kind, Workload: wl, Seed: seed, Policy: j.Knobs.Policy,
			PABDisabled: j.Knobs.PABDisabled, ForcePAB: j.Knobs.ForcePAB, Recycler: rec,
		}, warmup, measure, &fault.Plan{MeanInterval: j.Knobs.FaultInterval, Seed: seed ^ 0x51a17})
		if err != nil {
			return err
		}
		setup += cr.newSys + cr.warm
		total += cr.newSys + cr.warm + cr.meas
		runs = append(runs, cr)
	}
	if total > 0 {
		lm["relia.trial_setup_share"] = setup.Seconds() / total.Seconds()
	}
	chipMetrics(lm, runs)
	return replayProbe(b, lm)
}

// chipMetrics derives the simulator's per-layer figures from the
// probe's chips: host time per simulated cycle by kind, and the
// simulated counts that explain it.
func chipMetrics(lm layerMetrics, runs []chipRun) {
	var meas time.Duration
	var cycles, lookups, misses, enterN, leaveN uint64
	var enterCyc, leaveCyc float64
	var cc core.Metrics
	for _, label := range nsPerCycleLabels {
		var d time.Duration
		var n uint64
		for _, r := range runs {
			if r.label == label {
				d += r.meas
				n += r.cycles
			}
		}
		if n > 0 {
			lm["core.ns_per_cycle."+label] = float64(d.Nanoseconds()) / float64(n)
		}
	}
	for _, r := range runs {
		meas += r.meas
		cycles += r.cycles
		lookups += r.tlbLookups
		misses += r.tlbMisses
		cc.Core.Add(&r.m.Core)
		cc.Cache.Add(&r.m.Cache)
		cc.Checks += r.m.Checks
		cc.Mismatches += r.m.Mismatches
		cc.PABChecks += r.m.PABChecks
		cc.PABMisses += r.m.PABMisses
		cc.PABExceptions += r.m.PABExceptions
		enterN += r.m.EnterN
		leaveN += r.m.LeaveN
		enterCyc += r.m.EnterAvg * float64(r.m.EnterN)
		leaveCyc += r.m.LeaveAvg * float64(r.m.LeaveN)
	}
	c := &cc.Core
	lm["core.sim_cycles"] = float64(cycles)
	lm["cpu.host_ns_per_commit"] = ratio(float64(meas.Nanoseconds()), float64(c.Commits))
	lm["cpu.commits"] = float64(c.Commits)
	lm["cpu.ipc"] = ratio(float64(c.Commits), float64(c.Cycles))
	lm["cpu.idle_frac"] = ratio(float64(c.IdleCycles), float64(c.Cycles))
	lm["cpu.window_full_frac"] = ratio(float64(c.WindowFullCycles), float64(c.Cycles))
	lm["cpu.check_wait_frac"] = ratio(float64(c.CheckWaitCycles), float64(c.Cycles))
	lm["paging.tlb_miss_ratio"] = ratio(float64(misses), float64(lookups))
	lm["cache.l1_miss_ratio"] = ratio(float64(cc.Cache.L1Misses), float64(cc.Cache.L1Hits+cc.Cache.L1Misses))
	lm["cache.l2_miss_ratio"] = ratio(float64(cc.Cache.L2Misses), float64(cc.Cache.L2Hits+cc.Cache.L2Misses))
	lm["cache.flushed_lines"] = float64(cc.Cache.FlushedLines)
	lm["reunion.checks"] = float64(cc.Checks)
	lm["reunion.mismatches"] = float64(cc.Mismatches)
	lm["pab.checks"] = float64(cc.PABChecks)
	lm["pab.misses"] = float64(cc.PABMisses)
	lm["pab.exceptions"] = float64(cc.PABExceptions)
	lm["mode.switches"] = float64(c.ModeSwitches)
	lm["mode.enter_cycles_avg"] = ratio(enterCyc, float64(enterN))
	lm["mode.leave_cycles_avg"] = ratio(leaveCyc, float64(leaveN))
}

// replayLen is the number of instructions each replay generates.
const replayLen = 200_000

// replayProbe times trace.Gen.Next on each cold mix, then replays the
// generated data addresses through paging.TLB.Lookup and
// cache.Hierarchy.Load/Store on one core. Each figure is the median of
// three replays on fresh structures.
func replayProbe(b *bench, lm layerMetrics) error {
	var tlbNs, loadNs, storeNs []float64
	for _, mix := range perfMixes {
		wl, err := workload.ByName(mix)
		if err != nil {
			return err
		}
		// The chip supplies the mix's address space, laid out as the
		// engine's chips lay it out.
		chip, err := core.NewSystem(core.Options{Kind: core.KindNoDMR, Workload: wl, Seed: b.seed})
		if err != nil {
			return err
		}
		space := chip.Guests[0].VCPUs[0].Space
		cfg := chip.Cfg
		var next []float64
		for rep := 0; rep < 3; rep++ {
			op := fmt.Sprintf("replay/%s/%d", mix, rep)
			root := b.tr.begin("bench.probe.replay", -1, op)
			insts := make([]isa.Inst, replayLen)
			g := trace.New(wl, b.seed)
			id := b.tr.begin("trace.Gen.Next", root, op)
			start := time.Now()
			for i := range insts {
				insts[i] = g.Next()
			}
			next = append(next, perCall(time.Since(start), len(insts)))
			b.tr.end(id)

			var loads, stores []uint64
			tlb := paging.NewTLB(cfg.TLBEntries)
			id = b.tr.begin("paging.TLB.Lookup", root, op)
			start = time.Now()
			lookups := 0
			for _, in := range insts {
				if !in.Class.IsMem() {
					continue
				}
				lookups++
				pa, _, ok := tlb.Lookup(space, in.VA)
				switch {
				case !ok:
				case in.Class == isa.Load:
					loads = append(loads, pa)
				default:
					stores = append(stores, pa)
				}
			}
			tlbNs = append(tlbNs, perCall(time.Since(start), lookups))
			b.tr.end(id)

			hier := cache.New(cfg)
			id = b.tr.begin("cache.Hierarchy.Load", root, op)
			start = time.Now()
			for i, pa := range loads {
				hier.Load(0, pa, sim.Cycle(i))
			}
			loadNs = append(loadNs, perCall(time.Since(start), len(loads)))
			b.tr.end(id)
			id = b.tr.begin("cache.Hierarchy.Store", root, op)
			start = time.Now()
			for i, pa := range stores {
				hier.Store(0, pa, sim.Cycle(len(loads)+i))
			}
			storeNs = append(storeNs, perCall(time.Since(start), len(stores)))
			b.tr.end(id)
			b.tr.end(root)
		}
		lm["trace.next_ns."+mix] = median(next)
	}
	lm["paging.tlb_lookup_ns"] = median(tlbNs)
	lm["cache.load_ns"] = median(loadNs)
	lm["cache.store_ns"] = median(storeNs)
	return nil
}

// campaignProbe times Spec.Expand and Job.Fingerprint on the
// workload's campaigns.
func campaignProbe(b *bench, st *state, lm layerMetrics) error {
	var expand, fp []float64
	for _, sub := range st.subs {
		for rep := 0; rep < 10; rep++ {
			op := fmt.Sprintf("expand/%s/%d", sub.name, rep)
			root := b.tr.begin("bench.probe.campaign", -1, op)
			id := b.tr.begin("campaign.Spec.Expand", root, op)
			start := time.Now()
			jobs, err := sub.spec.Expand()
			expand = append(expand, float64(time.Since(start).Nanoseconds())/1e6)
			b.tr.end(id)
			if err != nil {
				b.tr.end(root)
				return err
			}
			id = b.tr.begin("campaign.Job.Fingerprint", root, op)
			start = time.Now()
			for _, j := range jobs {
				_ = j.Fingerprint(sub.sc)
			}
			fp = append(fp, perCall(time.Since(start), len(jobs))/1e3)
			b.tr.end(id)
			b.tr.end(root)
		}
	}
	lm["campaign.expand_ms"] = median(expand)
	lm["campaign.fingerprint_us"] = median(fp)
	return nil
}

// perCall is d in nanoseconds per call over n calls.
func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// ratio is num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
