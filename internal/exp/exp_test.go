package exp

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/mode"
)

// testCache is shared by every test config: experiments that revisit a
// cell another test already simulated at the same scale hit the warm
// cache instead of re-simulating. TestMain opens it in a fresh
// directory and removes that when the tests end.
var testCache *campaign.DiskCache

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "exp-test-cache-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testCache, err = campaign.NewDiskCache(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny returns a minimal-scale experiment config for tests.
func tiny() Config {
	c := Quick()
	c.Warmup = 60_000
	c.Measure = 120_000
	c.Timeslice = 40_000
	c.Cache = testCache
	return c
}

// fig5Rows runs the tiny Figure 5 sweep exactly once; every test that
// needs Figure 5 shapes shares the result instead of re-simulating.
var fig5Rows = sync.OnceValues(func() ([]Fig5Row, error) {
	return Figure5(tiny())
})

func TestFigure5Shape(t *testing.T) {
	rows, err := fig5Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.IPCNoDMR2X.Mean() != 1.0 {
			t.Errorf("%s: baseline not normalized to 1", r.Workload)
		}
		if r.IPCReunion.Mean() <= 0 || r.TPReunion.Mean() <= 0 {
			t.Errorf("%s: Reunion produced nothing", r.Workload)
		}
		// Reunion's throughput must be below the 16-thread baseline
		// (it runs half the VCPUs, each slower) at any scale.
		if r.TPReunion.Mean() >= 1.0 {
			t.Errorf("%s: Reunion throughput %.2f >= baseline", r.Workload, r.TPReunion.Mean())
		}
	}
	if Figure5aTable(rows).String() == "" || Figure5bTable(rows).String() == "" {
		t.Fatal("tables render empty")
	}
}

func TestFigure5CacheShared(t *testing.T) {
	// The shared sweep warmed testCache, so re-deriving Figure 5 at the
	// same scale must be pure cache hits and reproduce the same rows.
	if _, err := fig5Rows(); err != nil {
		t.Fatal(err)
	}
	c := tiny()
	spec, err := campaign.Named("figure5", c.workloads(), c.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.runSet(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Misses != 0 || rs.Hits != len(jobs) {
		t.Fatalf("warm rerun: hits=%d misses=%d want %d/0", rs.Hits, rs.Misses, len(jobs))
	}
}

func TestTable1Shape(t *testing.T) {
	c := tiny()
	// The per-workload assertions are structural; three workloads with
	// distinct OS profiles cover them without simulating all six under
	// MMM-TP (three guests per run, the most expensive system kind).
	c.Workloads = []string{"apache", "oltp", "zeus"}
	rows, err := Table1(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(c.Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Enter.Mean() <= 0 || r.Leave.Mean() <= 0 {
			t.Errorf("%s: missing transitions", r.Workload)
			continue
		}
		// Leave is dominated by the 8192-line flush; Enter is not.
		if r.Leave.Mean() < 8000 {
			t.Errorf("%s: leave %.0f < flush floor", r.Workload, r.Leave.Mean())
		}
		if r.Enter.Mean() >= r.Leave.Mean() {
			t.Errorf("%s: enter %.0f >= leave %.0f", r.Workload, r.Enter.Mean(), r.Leave.Mean())
		}
	}
	if Table1Table(rows).String() == "" {
		t.Fatal("table renders empty")
	}
}

func TestTable2Shape(t *testing.T) {
	// Table 2 measures user/OS phase round trips; the long-burst
	// workloads (pgbench: 554k user cycles between traps) need windows
	// the full benchmark provides. Here we use a mid-size window and
	// validate the short-phase workloads' cadence and shape — so only
	// those two workloads are simulated.
	c := tiny()
	c.Measure = 600_000
	c.Workloads = []string{"apache", "zeus"}
	rows, err := Table2(c)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	for _, name := range []string{"apache", "zeus"} {
		r := byName[name]
		if r.UserCyc.Mean() <= 0 || r.OSCyc.Mean() <= 0 {
			t.Errorf("%s: zero cadence at 600k cycles", name)
		}
	}
	// Relative shape: zeus is OS-dominated.
	if z := byName["zeus"]; z.OSCyc.Mean() <= z.UserCyc.Mean() {
		t.Error("zeus should spend more cycles in the OS than in user code")
	}
	if Table2Table(rows).String() == "" {
		t.Fatal("table renders empty")
	}
}

func TestFaultStudyShape(t *testing.T) {
	c := tiny()
	rows, err := FaultStudy(c, "apache", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if FaultTable(rows).String() == "" {
		t.Fatal("table renders empty")
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	c := tiny()
	_, err := c.runAll([]campaign.Job{{Workload: "nope", Kind: core.KindNoDMR, Seed: 1}})
	if err == nil {
		t.Fatal("bad workload name not reported")
	}
}

func TestKeyFormat(t *testing.T) {
	if key("apache", core.KindNoDMR, "") != "apache/NoDMR" {
		t.Fatal(key("apache", core.KindNoDMR, ""))
	}
	if key("apache", core.KindNoDMR, "v") != "apache/NoDMR/v" {
		t.Fatal(key("apache", core.KindNoDMR, "v"))
	}
}

func TestReliabilityStudyShape(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"apache"}
	rows, err := ReliabilityStudy(c)
	if err != nil {
		t.Fatal(err)
	}
	modes := len(campaign.ReliaModes())
	rates := len(campaign.DefaultFaultRates())
	if len(rows) != modes*rates {
		t.Fatalf("rows = %d, want %d (modes x rates)", len(rows), modes*rates)
	}
	agg := map[string]*ReliaRow{}
	for i := range rows {
		r := &rows[i]
		if a := agg[r.Mode]; a == nil {
			cp := *r
			agg[r.Mode] = &cp
		} else {
			a.Faults += r.Faults
			a.SDC += r.SDC
			a.DUE += r.DUE
			a.Prevented += r.Prevented
		}
	}
	// DMR mode must never leak silent corruption, and its result-flip
	// coverage interval must include 100%.
	if d := agg["dmr"]; d == nil || d.SDC != 0 {
		t.Fatalf("dmr mode leaked SDC: %+v", d)
	}
	for _, r := range rows {
		if r.Mode == "dmr" && r.Faults > 0 && r.ResultHi != 1 {
			t.Fatalf("dmr result coverage interval excludes 100%%: %+v", r)
		}
	}
	// Performance mode accepts SDC (unchecked result flips) while the
	// PAB prevents TLB-flip stores that threaten protected memory.
	if p := agg["performance"]; p == nil || p.Faults == 0 || p.SDC == 0 {
		t.Fatalf("performance mode shape wrong: %+v", agg["performance"])
	}
	if ReliabilityTable(rows).String() == "" {
		t.Fatal("table renders empty")
	}
}

func TestPolicyStudyShape(t *testing.T) {
	c := tiny()
	c.Workloads = []string{"apache"}
	rows, err := PolicyStudy(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered dynamic policy x {clean, faulty}.
	if want := 2 * len(mode.Dynamic()); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	byPolicy := map[string]bool{}
	for _, r := range rows {
		byPolicy[r.Policy] = true
		if r.PerfIPC.N() == 0 || r.RelIPC.N() == 0 {
			t.Fatalf("%s/%s: empty ratio samples", r.Policy, r.Variant)
		}
		// Duty-cycle forces transitions at every boundary; the study
		// must see them.
		if r.Policy == "duty-cycle" && r.Switches.Mean() == 0 {
			t.Fatalf("duty-cycle reported no mode switches")
		}
	}
	for _, p := range mode.Dynamic() {
		if !byPolicy[p] {
			t.Fatalf("policy %q missing from study", p)
		}
	}
	if PolicyTable(rows).String() == "" {
		t.Fatal("table renders empty")
	}
	// A restricted axis runs only the requested policies (plus the
	// static baseline), honoring parameterized specs.
	c.Policies = []string{"duty-cycle:60000:25"}
	rows, err = PolicyStudy(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Policy != "duty-cycle" {
		t.Fatalf("restricted axis rows: %+v", rows)
	}
}
