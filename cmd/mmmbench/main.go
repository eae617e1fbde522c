// Command mmmbench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated Mixed-Mode Multicore:
//
//	mmmbench                  # everything, default scale
//	mmmbench -exp fig5a       # one experiment
//	mmmbench -quick           # reduced scale (fast smoke run)
//	mmmbench -measure 3000000 # override the measurement window
//	mmmbench -cache ./cache   # reuse results across invocations
//	mmmbench -json out.json   # machine-readable per-experiment results
//	mmmbench -workers n1:8078,n2:8078  # shard jobs across mmmd -worker nodes
//
// Experiments: fig5a, fig5b, fig6a, fig6b, table1, table2, pab,
// singleos, faults, relia, policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/mode"
	"repro/internal/sim"
)

// expResult is one experiment's machine-readable record, consumed by
// the perf-trajectory BENCH_*.json tooling.
type expResult struct {
	Experiment string  `json:"experiment"`
	Rows       int     `json:"rows"`
	WallMS     float64 `json:"wall_ms"`
	// Trials counts the Monte Carlo trial slices the reliability study
	// simulated — the quantity -halfwidth exists to shrink; 0 for
	// experiments without a trial axis.
	Trials int `json:"trials,omitempty"`
}

func main() {
	var (
		which     = flag.String("exp", "all", "experiment: all,fig5a,fig5b,fig6a,fig6b,table1,table2,pab,singleos,faults,relia,policy")
		policies  = flag.String("policies", "", "comma-separated mode-policy axis for -exp policy (e.g. 'static,duty-cycle:60000:25'); empty sweeps every registered policy")
		quick     = flag.Bool("quick", false, "reduced scale for a fast smoke run")
		warmup    = flag.Uint64("warmup", 0, "override warmup cycles")
		measure   = flag.Uint64("measure", 0, "override measurement cycles")
		slice     = flag.Uint64("timeslice", 0, "override gang-scheduling timeslice cycles")
		seeds     = flag.Int("seeds", 0, "override number of seeds")
		wls       = flag.String("workloads", "", "comma-separated workload subset (empty = all six)")
		par       = flag.Int("parallel", 0, "override worker parallelism")
		cacheDir  = flag.String("cache", "", "campaign result cache directory (empty = no cache)")
		hw        = flag.Float64("halfwidth", 0, "when > 0, run -exp relia with sequential stopping: trials in waves until each cell's 95% coverage interval is within this half-width (e.g. 0.05)")
		fixTrials = flag.Int("trials", 0, "override -exp relia fixed trials per cell (sizes a fixed-batch run to an adaptive run's worst-case budget; ignored with -halfwidth)")
		workers   = flag.String("workers", "", "comma-separated mmmd worker fleet (host:port,...); shards campaign jobs remotely")
		coord     = flag.String("coordinator", "", "job-board bind address for -workers (host[:port]); set a host the workers can reach for cross-host fleets (default loopback, single-machine only)")
		jsonOut   = flag.String("json", "", "write per-experiment results as JSON to this file (- for stdout)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (go tool pprof) to this file at exit")
		execTr    = flag.String("trace", "", "write a runtime execution trace (go tool trace) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *execTr != "" {
		f, err := os.Create(*execTr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer rtrace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			}
		}()
	}

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	if *warmup > 0 {
		cfg.Warmup = sim.Cycle(*warmup)
	}
	if *measure > 0 {
		cfg.Measure = sim.Cycle(*measure)
	}
	if *slice > 0 {
		cfg.Timeslice = sim.Cycle(*slice)
	}
	if *seeds > 0 {
		cfg.Seeds = cfg.Seeds[:0]
		for i := 0; i < *seeds; i++ {
			cfg.Seeds = append(cfg.Seeds, uint64(11+10*i))
		}
	}
	if *par > 0 {
		cfg.Parallel = *par
	}
	if *wls != "" {
		for _, w := range strings.Split(*wls, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Workloads = append(cfg.Workloads, w)
			}
		}
	}
	if *policies != "" {
		for _, p := range strings.Split(*policies, ",") {
			p = strings.TrimSpace(p)
			if _, err := mode.Parse(p); err != nil {
				fmt.Fprintf(os.Stderr, "mmmbench: -policies: %v\n", err)
				os.Exit(2)
			}
			cfg.Policies = append(cfg.Policies, p)
		}
	}
	if *hw > 0 {
		cfg.Precision = &campaign.Precision{HalfWidth: *hw}
	}
	cfg.ReliaTrials = *fixTrials
	if *cacheDir != "" {
		cache, err := campaign.NewDiskCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
		cfg.Cache = cache
	}
	if *workers != "" {
		fleet := campaign.ParseWorkerList(*workers)
		if len(fleet) == 0 {
			fmt.Fprintf(os.Stderr, "mmmbench: -workers %q names no workers\n", *workers)
			os.Exit(1)
		}
		// The dispatcher honors the same cache, so mixed local/remote
		// reruns resume from each other's results.
		cfg.Runner = campaign.NewDispatcher(campaign.DispatchOptions{
			Workers: fleet,
			Cache:   cfg.Cache,
			Addr:    campaign.CoordinatorAddr(*coord),
		})
	}

	var results []expResult
	matched := false
	trials := 0 // set by experiments with a trial axis, consumed per run
	run := func(name string, fn func() (int, error)) {
		if *which != "all" && !strings.EqualFold(*which, name) {
			return
		}
		matched = true
		start := time.Now()
		trials = 0
		rows, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Printf("[%s completed in %v]\n\n", name, wall.Round(time.Millisecond))
		results = append(results, expResult{
			Experiment: name,
			Rows:       rows,
			WallMS:     float64(wall.Microseconds()) / 1000,
			Trials:     trials,
		})
	}

	var fig5 []exp.Fig5Row
	run("fig5a", func() (int, error) {
		rows, err := exp.Figure5(cfg)
		if err != nil {
			return 0, err
		}
		fig5 = rows
		fmt.Println(exp.Figure5aTable(rows))
		return len(rows), nil
	})
	run("fig5b", func() (int, error) {
		rows := fig5
		if rows == nil {
			var err error
			rows, err = exp.Figure5(cfg)
			if err != nil {
				return 0, err
			}
		}
		fmt.Println(exp.Figure5bTable(rows))
		return len(rows), nil
	})

	var fig6 []exp.Fig6Row
	run("fig6a", func() (int, error) {
		rows, err := exp.Figure6(cfg)
		if err != nil {
			return 0, err
		}
		fig6 = rows
		fmt.Println(exp.Figure6aTable(rows))
		return len(rows), nil
	})
	run("fig6b", func() (int, error) {
		rows := fig6
		if rows == nil {
			var err error
			rows, err = exp.Figure6(cfg)
			if err != nil {
				return 0, err
			}
		}
		fmt.Println(exp.Figure6bTable(rows))
		return len(rows), nil
	})

	run("table1", func() (int, error) {
		rows, err := exp.Table1(cfg)
		if err != nil {
			return 0, err
		}
		fmt.Println(exp.Table1Table(rows))
		return len(rows), nil
	})
	run("table2", func() (int, error) {
		rows, err := exp.Table2(cfg)
		if err != nil {
			return 0, err
		}
		fmt.Println(exp.Table2Table(rows))
		return len(rows), nil
	})
	run("pab", func() (int, error) {
		rows, err := exp.PABStudy(cfg)
		if err != nil {
			return 0, err
		}
		fmt.Println(exp.PABTable(rows))
		return len(rows), nil
	})
	run("singleos", func() (int, error) {
		rows, err := exp.SingleOSOverhead(cfg)
		if err != nil {
			return 0, err
		}
		fmt.Println(exp.SingleOSTable(rows))
		return len(rows), nil
	})
	run("faults", func() (int, error) {
		rows, err := exp.FaultStudy(cfg, "apache", 40_000)
		if err != nil {
			return 0, err
		}
		fmt.Println(exp.FaultTable(rows))
		return len(rows), nil
	})
	run("relia", func() (int, error) {
		rows, err := exp.ReliabilityStudy(cfg)
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			trials += r.Trials
		}
		fmt.Println(exp.ReliabilityTable(rows))
		return len(rows), nil
	})
	run("policy", func() (int, error) {
		rows, err := exp.PolicyStudy(cfg)
		if err != nil {
			return 0, err
		}
		fmt.Println(exp.PolicyTable(rows))
		return len(rows), nil
	})

	if !matched {
		fmt.Fprintf(os.Stderr, "mmmbench: unknown experiment %q (see -exp usage)\n", *which)
		os.Exit(2)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "mmmbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeJSON emits the per-experiment records to path ("-" = stdout).
func writeJSON(path string, results []expResult) error {
	var total float64
	for _, r := range results {
		total += r.WallMS
	}
	doc := struct {
		Experiments []expResult `json:"experiments"`
		TotalWallMS float64     `json:"total_wall_ms"`
	}{Experiments: results, TotalWallMS: total}
	if doc.Experiments == nil {
		doc.Experiments = []expResult{}
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
