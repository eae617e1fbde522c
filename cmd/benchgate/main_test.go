package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// benchFixture is real-shaped `go test -bench -count=3` output from
// the multi-cell suite: three samples per kind at the primary cell,
// extra workload/seed cells, kind names containing dashes, a line with
// no GOMAXPROCS suffix, plus noise lines the parser must skip.
const benchFixture = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkHotPath/NoDMR/apache/s11-4         	     100	  10000000 ns/op	   1600000 cycles/sec
BenchmarkHotPath/NoDMR/apache/s11-4         	     100	  10000000 ns/op	   1500000 cycles/sec
BenchmarkHotPath/NoDMR/apache/s11-4         	     100	  10000000 ns/op	   1700000 cycles/sec
BenchmarkHotPath/NoDMR/oltp/s12-4           	     100	  10000000 ns/op	   2000000 cycles/sec
BenchmarkHotPath/MMM-IPC/apache/s11-4      	     100	  10000000 ns/op	   1000000 cycles/sec
BenchmarkHotPath/MMM-IPC/apache/s11-4      	     100	  10000000 ns/op	    900000 cycles/sec
BenchmarkHotPath/MMM-IPC/apache/s11-4      	     100	  10000000 ns/op	    950000 cycles/sec
BenchmarkHotPath/SingleOS/apache/s11       	       1	  10000000 ns/op	   4000000 cycles/sec
BenchmarkHotPathTick/NoDMR-4    	     100	  10000000 ns/op	    500000 cycles/sec
PASS
ok  	repro	1.0s
`

// legacyLine is pre-multi-cell output: a bare kind with no
// workload/seed cell.
const legacyLine = "BenchmarkHotPath/SingleOS       \t       1\t  10000000 ns/op\t   4000000 cycles/sec\n"

func TestParseBenchAndGroup(t *testing.T) {
	grouped, err := parseBench(strings.NewReader(benchFixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != 3 {
		t.Fatalf("parsed kinds %v, want NoDMR, MMM-IPC and SingleOS", grouped)
	}
	if got := grouped["NoDMR"][primaryCell]; len(got) != 3 || got[0] != 1600000 {
		t.Fatalf("NoDMR primary samples: %v", got)
	}
	if got := grouped["NoDMR"]["oltp/s12"]; len(got) != 1 || got[0] != 2000000 {
		t.Fatalf("NoDMR oltp/s12 samples: %v", got)
	}
	// Dashed kind names must survive the GOMAXPROCS-suffix strip.
	if got := grouped["MMM-IPC"][primaryCell]; len(got) != 3 || got[1] != 900000 {
		t.Fatalf("MMM-IPC samples: %v", got)
	}
	// GOMAXPROCS=1 output has no -N suffix.
	if got := grouped["SingleOS"][primaryCell]; len(got) != 1 || got[0] != 4000000 {
		t.Fatalf("SingleOS samples: %v", got)
	}
	// A cell-less line cannot be gated: it is an error naming the
	// expected form, not a silent primary-cell sample.
	_, err = parseBench(strings.NewReader(benchFixture + legacyLine))
	if err == nil || !strings.Contains(err.Error(), "<kind>/<workload>/s<seed>") {
		t.Fatalf("bare-kind line: err %v, want one naming <kind>/<workload>/s<seed>", err)
	}
}

func TestSplitCell(t *testing.T) {
	cases := []struct {
		name, kind, cell string
		ok               bool
	}{
		{"NoDMR/apache/s11", "NoDMR", "apache/s11", true},
		{"MMM-IPC/oltp/s13", "MMM-IPC", "oltp/s13", true},
		{"SingleOS", "", "", false},
		{"SingleOS/apache", "", "", false},
		{"SingleOS/apache/11", "", "", false},
	}
	for _, tc := range cases {
		k, c, ok := splitCell(tc.name)
		if k != tc.kind || c != tc.cell || ok != tc.ok {
			t.Errorf("splitCell(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, k, c, ok, tc.kind, tc.cell, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of odd count: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Fatalf("median of even count (lower middle): %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Fatalf("median of one: %v", got)
	}
}

func TestSpread(t *testing.T) {
	if lo, hi := spread([]float64{3, 1, 2}); lo != 1 || hi != 3 {
		t.Fatalf("spread = [%v..%v], want [1..3]", lo, hi)
	}
	if lo, hi := spread([]float64{7}); lo != 7 || hi != 7 {
		t.Fatalf("spread of one = [%v..%v], want [7..7]", lo, hi)
	}
}

// TestCV: the coefficient of variation is population stddev over mean,
// rounded to four decimals, and zero when it cannot be estimated (one
// sample, constant samples, non-positive mean).
func TestCV(t *testing.T) {
	if got := cv([]float64{100}); got != 0 {
		t.Errorf("cv of one sample = %v, want 0", got)
	}
	if got := cv([]float64{7, 7, 7}); got != 0 {
		t.Errorf("cv of constant samples = %v, want 0", got)
	}
	// mean 100, deviations ±10 -> population stddev 10 -> cv 0.1
	if got := cv([]float64{90, 110}); got != 0.1 {
		t.Errorf("cv(90, 110) = %v, want 0.1", got)
	}
	if got := cv([]float64{0, 0}); got != 0 {
		t.Errorf("cv of zero-mean samples = %v, want 0", got)
	}
	// Rounding: 900/1000/1100 -> stddev 81.65 -> cv 0.0816 (4 decimals).
	if got := cv([]float64{900, 1000, 1100}); got != 0.0816 {
		t.Errorf("cv(900,1000,1100) = %v, want 0.0816", got)
	}
}

// TestGateFloorBoundary: the gate fails strictly below
// baseline*(1-tolerance); a median exactly at the floor passes.
func TestGateFloorBoundary(t *testing.T) {
	baseline := map[string]baselineKind{"A": {Cells: map[string]cellStat{primaryCell: {Median: 1000}}}}
	at := map[string]map[string][]float64{"A": {primaryCell: {800}}}
	if res := gate(baseline, at, 0.20); len(res.Regressions) != 0 {
		t.Errorf("median exactly at the 20%% floor flagged: %v", res.Regressions)
	}
	below := map[string]map[string][]float64{"A": {primaryCell: {799}}}
	if res := gate(baseline, below, 0.20); len(res.Regressions) != 1 {
		t.Errorf("median below the floor not flagged: %v", res.Regressions)
	}
}

// TestGateRecordsCV: the gate artifact and the appended baseline entry
// both carry the coefficient of variation next to every median.
func TestGateRecordsCV(t *testing.T) {
	baseline := map[string]baselineKind{"A": {Cells: map[string]cellStat{primaryCell: {Median: 100}}}}
	fresh := map[string]map[string][]float64{"A": {
		primaryCell: {90, 110},
		"oltp/s12":  {90, 110},
	}}
	res := gate(baseline, fresh, 0.20)
	if gk := res.Kinds["A"]; gk.CV != 0.1 {
		t.Errorf("gate kind CV = %v, want 0.1", gk.CV)
	}
	if cs := res.Kinds["A"].Cells["oltp/s12"]; cs.CV != 0.1 {
		t.Errorf("gate cell CV = %v, want 0.1", cs.CV)
	}

	raw, err := buildUpdateEntry(baselineEntry{}, fresh, 10, "2026-08-07", "")
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		CyclesPerSec map[string]updateKind `json:"cycles_per_sec"`
	}
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	uk := entry.CyclesPerSec["A"]
	if uk.CV != 0.1 || uk.Cells[primaryCell].CV != 0.1 {
		t.Errorf("update entry CV = %v / %v, want 0.1 / 0.1", uk.CV, uk.Cells[primaryCell].CV)
	}
}

func TestGate(t *testing.T) {
	grouped, err := parseBench(strings.NewReader(benchFixture))
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]baselineKind{
		"NoDMR":   {Cells: map[string]cellStat{primaryCell: {Median: 1624690}}},
		"MMM-IPC": {Cells: map[string]cellStat{primaryCell: {Median: 1034722}}},
	}

	// Medians 1600000 and 950000 are ~0.98x and ~0.92x of baseline:
	// comfortably inside a 35% tolerance.
	res := gate(baseline, grouped, 0.35)
	if len(res.Regressions) != 0 {
		t.Fatalf("within tolerance but flagged: %v", res.Regressions)
	}
	if res.Kinds["NoDMR"].Median != 1600000 {
		t.Fatalf("NoDMR median: %+v", res.Kinds["NoDMR"])
	}
	// The artifact records the per-cell run-to-run spread next to the
	// median, so a noisy box is distinguishable from a shifted median.
	if gk := res.Kinds["NoDMR"]; gk.Min != 1500000 || gk.Max != 1700000 {
		t.Fatalf("NoDMR spread: %+v", gk)
	}
	if cs := res.Kinds["NoDMR"].Cells["oltp/s12"]; cs.Median != 2000000 {
		t.Fatalf("NoDMR oltp cell: %+v", res.Kinds["NoDMR"].Cells)
	}
	if gk := res.Kinds["MMM-IPC"]; gk.Min != 900000 || gk.Max != 1000000 {
		t.Fatalf("MMM-IPC spread: %+v", gk)
	}

	// A tight tolerance turns the slower kind into a regression.
	res = gate(baseline, grouped, 0.05)
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "MMM-IPC") {
		t.Fatalf("5%% tolerance: %v", res.Regressions)
	}

	// A baseline kind with no fresh samples is itself a failure — the
	// gate must not silently pass when a benchmark stops running.
	baseline["Reunion"] = baselineKind{Cells: map[string]cellStat{primaryCell: {Median: 1000000}}}
	res = gate(baseline, grouped, 0.35)
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "Reunion") {
		t.Fatalf("missing kind not flagged: %v", res.Regressions)
	}
	delete(baseline, "Reunion")

	// Every recorded cell is gated: a regression confined to one cell
	// fails even when the primary cell is healthy, and a cell that
	// stopped running fails too.
	baseline["NoDMR"] = baselineKind{Cells: map[string]cellStat{
		primaryCell: {Median: 1624690},
		"oltp/s12":  {Median: 4000000}, // fresh median 2000000: 50% drop
	}}
	res = gate(baseline, grouped, 0.35)
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "NoDMR/oltp/s12") {
		t.Fatalf("per-cell regression not flagged: %v", res.Regressions)
	}
	baseline["NoDMR"] = baselineKind{Cells: map[string]cellStat{
		"oltp/s13": {Median: 2000000},
	}}
	res = gate(baseline, grouped, 0.35)
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "NoDMR/oltp/s13") {
		t.Fatalf("missing cell not flagged: %v", res.Regressions)
	}

	// A baseline kind recorded before the multi-cell suite has no cells
	// to gate: it fails and says how to refresh the baseline.
	baseline["NoDMR"] = baselineKind{After: 1624690}
	res = gate(baseline, grouped, 0.35)
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "NoDMR") ||
		!strings.Contains(res.Regressions[0], "-update") {
		t.Fatalf("cell-less baseline kind not flagged with -update: %v", res.Regressions)
	}
}

func TestBuildUpdateEntry(t *testing.T) {
	grouped, err := parseBench(strings.NewReader(benchFixture))
	if err != nil {
		t.Fatal(err)
	}
	prev := baselineEntry{
		PR: 4,
		CyclesPerSec: map[string]baselineKind{
			"NoDMR":   {After: 1500000},
			"MMM-IPC": {After: 1000000},
			// A kind retired from the suite simply drops out.
			"Retired": {After: 1},
		},
	}
	raw, err := buildUpdateEntry(prev, grouped, 5, "2026-07-29", "test change")
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		PR           int                   `json:"pr"`
		Date         string                `json:"date"`
		Change       string                `json:"change"`
		CyclesPerSec map[string]updateKind `json:"cycles_per_sec"`
	}
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.PR != 5 || entry.Date != "2026-07-29" || entry.Change != "test change" {
		t.Fatalf("header: %+v", entry)
	}
	// Known kinds: primary-cell median becomes after, previous after
	// becomes before.
	nd := entry.CyclesPerSec["NoDMR"]
	if nd.After != 1600000 || nd.Before != 1500000 || nd.Speedup != 1.07 {
		t.Fatalf("NoDMR: %+v", nd)
	}
	// Appended entries record the spread behind the median too — the
	// primary cell's inline, every cell's in the cells map.
	if nd.Min != 1500000 || nd.Max != 1700000 {
		t.Fatalf("NoDMR spread in entry: %+v", nd)
	}
	if cs := nd.Cells["oltp/s12"]; cs.Median != 2000000 || cs.Min != 2000000 || cs.Max != 2000000 {
		t.Fatalf("NoDMR cells in entry: %+v", nd.Cells)
	}
	if cs := nd.Cells[primaryCell]; cs.Median != 1600000 {
		t.Fatalf("NoDMR primary cell in entry: %+v", nd.Cells)
	}
	// A kind new to the suite records only an after — the exact case
	// the gate's missing-kind check could previously only fail on.
	so := entry.CyclesPerSec["SingleOS"]
	if so.After != 4000000 || so.Before != 0 || so.Speedup != 0 {
		t.Fatalf("SingleOS: %+v", so)
	}
	if _, ok := entry.CyclesPerSec["Retired"]; ok {
		t.Fatal("retired kind resurrected")
	}
	// The gate accepts the appended entry as its new baseline — now
	// including the per-cell checks.
	var latest baselineEntry
	if err := json.Unmarshal(raw, &latest); err != nil {
		t.Fatal(err)
	}
	res := gate(latest.CyclesPerSec, grouped, 0.35)
	if len(res.Regressions) != 0 {
		t.Fatalf("fresh entry gates its own samples: %v", res.Regressions)
	}
	// No samples at all is an error, not an empty entry.
	if _, err := buildUpdateEntry(prev, nil, 5, "2026-07-29", ""); err == nil {
		t.Fatal("empty samples accepted")
	}
}
