// Command benchgate is the CI bench regression gate: it parses `go
// test -bench` output for BenchmarkHotPath, takes the median of the
// reported cycles/sec metric across repeated runs for every
// kind×workload×seed cell, compares each cell the latest entry of
// BENCH_hotpath.json records against its fresh median, and fails
// (exit 1) when any cell regressed past the tolerance. The fresh
// numbers are written as JSON so CI can upload them as a build
// artifact and a human can refresh the baseline from them.
//
//	go test -run=NONE -bench='BenchmarkHotPath$' -benchtime=1s -count=3 . | tee bench.txt
//	benchgate -baseline BENCH_hotpath.json -bench bench.txt -tolerance 0.20 -out bench-fresh.json
//
// The tolerance still absorbs run-to-run noise — CI hardware is noisy
// and slower than the recorded machine — but with per-cell medians and
// each cell's coefficient of variation recorded next to them, a wide
// spread is distinguishable from a shifted median, so the gate can
// afford 20% (down from the original 35%): it catches a lost fast path
// or an accidentally quadratic hot loop without tripping on jitter.
//
// With -update, benchgate instead *appends* a fresh baseline entry to
// the file from the same bench output — per-kind medians become the
// "after" numbers, the previous entry's "after" numbers become
// "before" for kinds both entries share — so adding a new bench kind
// (which the gate would otherwise only ever fail as missing) is a
// one-command baseline refresh:
//
//	go test -run=NONE -bench='BenchmarkHotPath$' -benchtime=1s -count=3 . | \
//	    benchgate -update -pr 5 -change "mode-policy layer" -baseline BENCH_hotpath.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"time"
)

// baselineFile mirrors the BENCH_hotpath.json schema. The header
// fields ride along so -update rewrites the file without dropping
// them; entries stay raw so historical records round-trip untouched.
type baselineFile struct {
	Comment   string            `json:"comment,omitempty"`
	Benchmark string            `json:"benchmark"`
	Metric    string            `json:"metric"`
	Benchtime string            `json:"benchtime,omitempty"`
	Workload  string            `json:"workload,omitempty"`
	Seed      int               `json:"seed,omitempty"`
	CPU       string            `json:"cpu,omitempty"`
	Entries   []json.RawMessage `json:"entries"`
}

// latestEntry decodes the gate-relevant view of the newest entry.
func (bf *baselineFile) latestEntry() (baselineEntry, error) {
	var e baselineEntry
	if len(bf.Entries) == 0 {
		return e, fmt.Errorf("baseline has no entries")
	}
	err := json.Unmarshal(bf.Entries[len(bf.Entries)-1], &e)
	return e, err
}

type baselineEntry struct {
	PR           int                     `json:"pr"`
	CyclesPerSec map[string]baselineKind `json:"cycles_per_sec"`
}

// cellStat is the min/median/max of one workload×seed cell's samples,
// with the coefficient of variation (stddev/mean) quantifying the
// run-to-run noise behind the median.
type cellStat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	CV     float64 `json:"cv,omitempty"`
}

// cellStatOf summarizes one cell's samples.
func cellStatOf(samples []float64) cellStat {
	lo, hi := spread(samples)
	return cellStat{Median: median(samples), Min: lo, Max: hi, CV: cv(samples)}
}

type baselineKind struct {
	After float64 `json:"after"`
	// Cells records the per-workload×seed medians the gate checks
	// (entries appended before the multi-cell suite lack it and cannot
	// be gated against).
	Cells map[string]cellStat `json:"cells,omitempty"`
}

// primaryCell is the workload/seed cell every kind benches: its median
// is a kind's headline "after" number in appended entries and in the
// gate's report.
const primaryCell = "apache/s11"

// benchLine matches one sub-benchmark result line, e.g.
//
//	BenchmarkHotPath/MMM-IPC/apache/s11-4   123   9270000 ns/op   944490 cycles/sec
//
// capturing the full sub-benchmark name ("MMM-IPC/apache/s11"; the
// trailing -N is the GOMAXPROCS suffix, omitted when GOMAXPROCS=1) and
// the cycles/sec value.
var benchLine = regexp.MustCompile(`^BenchmarkHotPath/(.+?)(?:-\d+)?\s+.*?([0-9.e+]+) cycles/sec`)

// cellName is the sub-benchmark name form: <kind>/<workload>/s<seed>.
var cellName = regexp.MustCompile(`^([^/]+)/([^/]+/s[0-9]+)$`)

// parseBench collects every sub-benchmark's cycles/sec samples from go
// test -bench output (repeated runs via -count yield repeated samples),
// indexed by kind, then workload×seed cell. A BenchmarkHotPath line
// that names no cell is an error: its samples cannot be gated.
func parseBench(r io.Reader) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		k, c, ok := splitCell(m[1])
		if !ok {
			return nil, fmt.Errorf("benchgate: %q names no cell, want BenchmarkHotPath/<kind>/<workload>/s<seed>", m[1])
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad cycles/sec in %q: %w", sc.Text(), err)
		}
		if out[k] == nil {
			out[k] = make(map[string][]float64)
		}
		out[k][c] = append(out[k][c], v)
	}
	return out, sc.Err()
}

// splitCell splits a sub-benchmark name into system kind and
// workload×seed cell; ok is false unless the name has cellName's form.
func splitCell(name string) (kind, cell string, ok bool) {
	m := cellName.FindStringSubmatch(name)
	if m == nil {
		return "", "", false
	}
	return m[1], m[2], true
}

// median returns the middle sample (lower-middle for even counts).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// spread returns the min and max samples — the per-kind run-to-run
// spread recorded next to the median, so a noisy box (wide spread) is
// distinguishable from a real regression (shifted median).
func spread(samples []float64) (min, max float64) {
	min, max = samples[0], samples[0]
	for _, v := range samples[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// cv returns the coefficient of variation (population stddev divided by
// mean) of the samples — the dimensionless noise figure recorded next
// to every median. Zero for fewer than two samples or a non-positive
// mean. Rounded to four decimals so baseline files stay readable.
func cv(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	if mean <= 0 {
		return 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	return math.Round(math.Sqrt(ss/float64(len(samples)))/mean*1e4) / 1e4
}

// gateResult is the fresh-numbers artifact plus the verdict.
type gateResult struct {
	Benchmark   string              `json:"benchmark"`
	Metric      string              `json:"metric"`
	Tolerance   float64             `json:"tolerance"`
	PrimaryCell string              `json:"primary_cell"`
	Kinds       map[string]gateKind `json:"kinds"`
	Regressions []string            `json:"regressions"`
}

type gateKind struct {
	// Median/Min/Max/Samples describe the primary cell, the kind's
	// headline series; Baseline is that cell's recorded median.
	Median   float64   `json:"median"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	CV       float64   `json:"cv"`
	Samples  []float64 `json:"samples"`
	Baseline float64   `json:"baseline"`
	Ratio    float64   `json:"ratio"`
	// Cells is the min/median/max spread of every fresh workload×seed
	// cell of this kind.
	Cells map[string]cellStat `json:"cells"`
}

// gate compares fresh medians against the baseline: each cell a
// baseline kind records against its fresh counterpart, so a regression
// confined to one workload or seed fails like any other. A baseline
// kind without recorded cells, or a kind or cell with no fresh
// samples, is itself a gate failure: a baseline that cannot be checked
// or a benchmark that silently stopped running must not pass.
func gate(baseline map[string]baselineKind, grouped map[string]map[string][]float64, tolerance float64) gateResult {
	res := gateResult{
		Benchmark:   "BenchmarkHotPath",
		Metric:      "cycles/sec",
		Tolerance:   tolerance,
		PrimaryCell: primaryCell,
		Kinds:       make(map[string]gateKind),
		Regressions: []string{},
	}
	kinds := make([]string, 0, len(baseline))
	for k := range baseline {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		base := baseline[k]
		cells := grouped[k]
		if len(base.Cells) == 0 {
			res.Regressions = append(res.Regressions, fmt.Sprintf(
				"%s: baseline records no cells to gate (refresh it with benchgate -update)", k))
			continue
		}
		if len(cells) == 0 {
			res.Regressions = append(res.Regressions,
				fmt.Sprintf("%s: no samples (benchmark did not run)", k))
			continue
		}
		gk := gateKind{Cells: make(map[string]cellStat, len(cells))}
		for c, cs := range cells {
			gk.Cells[c] = cellStatOf(cs)
		}
		if ss := cells[primaryCell]; len(ss) > 0 {
			p := gk.Cells[primaryCell]
			gk.Median, gk.Min, gk.Max, gk.CV, gk.Samples = p.Median, p.Min, p.Max, p.CV, ss
			if b := base.Cells[primaryCell].Median; b > 0 {
				gk.Baseline, gk.Ratio = b, p.Median/b
			}
		}
		baseCells := make([]string, 0, len(base.Cells))
		for c := range base.Cells {
			baseCells = append(baseCells, c)
		}
		sort.Strings(baseCells)
		for _, c := range baseCells {
			bc := base.Cells[c]
			cs := cells[c]
			if len(cs) == 0 {
				res.Regressions = append(res.Regressions,
					fmt.Sprintf("%s/%s: no samples (cell did not run)", k, c))
				continue
			}
			if m := median(cs); bc.Median > 0 && m < bc.Median*(1-tolerance) {
				res.Regressions = append(res.Regressions, fmt.Sprintf(
					"%s/%s: median %.0f cycles/sec vs baseline %.0f (%.0f%% of baseline, floor %.0f%%)",
					k, c, m, bc.Median, 100*m/bc.Median, 100*(1-tolerance)))
			}
		}
		res.Kinds[k] = gk
	}
	return res
}

// updateKind is one kind's record in an appended baseline entry. Min
// and Max record the primary cell's run-to-run spread behind the
// "after" median; Cells the per-workload×seed spread of the whole
// suite.
type updateKind struct {
	Before  float64             `json:"before,omitempty"`
	After   float64             `json:"after"`
	Min     float64             `json:"min,omitempty"`
	Max     float64             `json:"max,omitempty"`
	CV      float64             `json:"cv,omitempty"`
	Speedup float64             `json:"speedup,omitempty"`
	Cells   map[string]cellStat `json:"cells,omitempty"`
}

// buildUpdateEntry folds fresh medians into a new baseline entry:
// primary-cell medians become "after", the previous entry's "after"
// become "before" where both exist (kinds new to the suite record only
// an "after"), and every workload×seed cell records its min/median/max
// so future gates can check each cell.
func buildUpdateEntry(prev baselineEntry, grouped map[string]map[string][]float64, pr int, date, change string) (json.RawMessage, error) {
	if len(grouped) == 0 {
		return nil, fmt.Errorf("bench output contains no BenchmarkHotPath samples")
	}
	kinds := make(map[string]updateKind, len(grouped))
	for k, cells := range grouped {
		ss := cells[primaryCell]
		if len(ss) == 0 {
			// A kind that skips the primary cell pools everything it ran
			// — After stays meaningful even for a partial suite.
			for _, cs := range cells {
				ss = append(ss, cs...)
			}
		}
		lo, hi := spread(ss)
		uk := updateKind{After: median(ss), Min: lo, Max: hi, CV: cv(ss),
			Cells: make(map[string]cellStat, len(cells))}
		for c, cs := range cells {
			uk.Cells[c] = cellStatOf(cs)
		}
		if base, ok := prev.CyclesPerSec[k]; ok && base.After > 0 {
			uk.Before = base.After
			uk.Speedup = round2(uk.After / uk.Before)
		}
		kinds[k] = uk
	}
	entry := struct {
		PR           int                   `json:"pr"`
		Date         string                `json:"date"`
		Change       string                `json:"change,omitempty"`
		CyclesPerSec map[string]updateKind `json:"cycles_per_sec"`
	}{PR: pr, Date: date, Change: change, CyclesPerSec: kinds}
	return marshalPlain(entry, "")
}

// marshalPlain marshals without HTML escaping — the baseline file is
// read by maintainers, and its comment/change strings legitimately
// contain <, > and & (shell recipes) that must not turn into <.
func marshalPlain(v any, indent string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if indent != "" {
		enc.SetIndent("", indent)
	}
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// round2 rounds to two decimals (speedup readability).
func round2(v float64) float64 {
	return math.Round(v*100) / 100
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_hotpath.json", "recorded baseline file")
		benchPath    = flag.String("bench", "-", "go test -bench output ('-' = stdin)")
		tolerance    = flag.Float64("tolerance", 0.20, "allowed fractional regression before failing")
		outPath      = flag.String("out", "", "write fresh numbers + verdict as JSON here")
		update       = flag.Bool("update", false, "append a fresh baseline entry instead of gating")
		pr           = flag.Int("pr", 0, "PR number recorded in the appended entry (-update)")
		change       = flag.String("change", "", "one-line change description for the appended entry (-update)")
	)
	flag.Parse()

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("%v", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal("parse %s: %v", *baselinePath, err)
	}
	latest, err := bf.latestEntry()
	if err != nil {
		fatal("%s: %v", *baselinePath, err)
	}

	in := os.Stdin
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in = f
	}
	grouped, err := parseBench(in)
	if err != nil {
		fatal("%v", err)
	}

	if *update {
		entry, err := buildUpdateEntry(latest, grouped, *pr, time.Now().Format("2006-01-02"), *change)
		if err != nil {
			fatal("%v", err)
		}
		bf.Entries = append(bf.Entries, entry)
		out, err := marshalPlain(&bf, "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("benchgate: appended entry pr=%d with %d kinds to %s\n",
			*pr, len(grouped), *baselinePath)
		return
	}

	res := gate(latest.CyclesPerSec, grouped, *tolerance)
	if *outPath != "" {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*outPath, append(out, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	kinds := make([]string, 0, len(res.Kinds))
	for k := range res.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		gk := res.Kinds[k]
		fmt.Printf("benchgate: %-10s median %12.0f  [%.0f..%.0f]  cv %.3f  baseline %12.0f  ratio %.2f\n",
			k, gk.Median, gk.Min, gk.Max, gk.CV, gk.Baseline, gk.Ratio)
		cells := make([]string, 0, len(gk.Cells))
		for c := range gk.Cells {
			cells = append(cells, c)
		}
		sort.Strings(cells)
		for _, c := range cells {
			cs := gk.Cells[c]
			fmt.Printf("benchgate:   %-20s median %12.0f  [%.0f..%.0f]  cv %.3f\n",
				c, cs.Median, cs.Min, cs.Max, cs.CV)
		}
	}
	if len(res.Regressions) > 0 {
		for _, r := range res.Regressions {
			fmt.Fprintf(os.Stderr, "benchgate: REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%d kinds within %.0f%% of baseline)\n",
		len(res.Kinds), 100**tolerance)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
