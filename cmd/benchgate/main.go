// Command benchgate is the CI bench regression gate, a same-box A/B:
// it reads two `go test -bench=BenchmarkHotPath` outputs taken in one
// CI job on one machine — -base from the merge-base build, -head from
// HEAD — and fails (exit 1) when HEAD simulates slower on some system
// kind.
//
// For each kind, every kind×workload×seed cell's cycles/sec samples on
// both sides are divided by that cell's base median, so fast and slow
// cells pool into one dimensionless sample per side, and a one-sided
// Mann-Whitney U test asks whether HEAD's ratios run lower than base's.
// A kind fails only when that p-value is below alpha AND the median of
// its per-cell HEAD/base median ratios is below floor: significance
// alone would fail a 1% slowdown measured precisely, and the ratio
// alone would fail noise. Only ratios enter the verdict, so it is the
// same on a slow box and a fast one, where a stored absolute baseline
// recorded on another machine is not. A kind or cell the base ran and
// HEAD did not fails; a kind only HEAD ran is reported and not gated.
// The test needs about five samples per side to reach alpha, so a
// kind with fewer cells×rounds cannot fail on significance.
//
// CI builds both test binaries with `go test -c`, runs each once per
// round for three rounds, alternating which goes first so drift on the
// box hits both sides alike, and appends each side's output to its
// file (see the bench-gate job in .github/workflows/ci.yml):
//
//	./base.test -test.run='^$' -test.bench=BenchmarkHotPath -test.benchtime=0.5s >>base.txt
//	./head.test -test.run='^$' -test.bench=BenchmarkHotPath -test.benchtime=0.5s >>head.txt
//	benchgate -base base.txt -head head.txt -out bench-verdict.json
//
// BENCH_hotpath.json is frozen history of the absolute numbers earlier
// changes recorded; nothing reads it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

const (
	// alpha is the significance level of the one-sided rank test.
	alpha = 0.01
	// floor is the median HEAD/base ratio a kind must fall below, on
	// top of significance, to fail.
	floor = 0.95
)

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

// benchPrefix starts every line that reports a BenchmarkHotPath cell.
const benchPrefix = "BenchmarkHotPath/"

// cellName is the sub-benchmark name form <kind>/<workload>/s<seed>,
// optionally followed by go test's -N GOMAXPROCS suffix (omitted when
// GOMAXPROCS=1).
var cellName = regexp.MustCompile(`^([^/]+)/([^/]+/s[0-9]+)(?:-[0-9]+)?$`)

// parseBench collects every BenchmarkHotPath cell's cycles/sec samples
// from go test -bench output (repeated runs, whether by -count or by
// appending rounds, yield repeated samples), indexed by kind, then
// workload×seed cell. Every line whose first field starts with
// BenchmarkHotPath/ must name a cell, e.g.
//
//	BenchmarkHotPath/MMM-IPC/apache/s11-4   123   9270000 ns/op   944490 cycles/sec
//
// or parseBench fails: its samples could not be gated. A cell line adds
// a sample when a finite positive number precedes its first
// "cycles/sec" field; a line without one (cut off, or a malformed
// number) adds none, and a base cell left with no HEAD samples fails
// the gate as missing.
func parseBench(r io.Reader) (map[string]map[string][]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]float64)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], benchPrefix) {
			continue
		}
		name := strings.TrimPrefix(f[0], benchPrefix)
		k, c, ok := splitCell(name)
		if !ok {
			return nil, fmt.Errorf("benchgate: %q names no cell, want BenchmarkHotPath/<kind>/<workload>/s<seed>", name)
		}
		v, ok := cyclesPerSec(f)
		if !ok {
			continue
		}
		if out[k] == nil {
			out[k] = make(map[string][]float64)
		}
		out[k][c] = append(out[k][c], v)
	}
	return out, nil
}

// cyclesPerSec reads the value before a result line's first
// "cycles/sec" field; ok is false unless it is a finite positive
// number.
func cyclesPerSec(fields []string) (float64, bool) {
	for i := 1; i < len(fields); i++ {
		if fields[i] == "cycles/sec" {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			return v, err == nil && v > 0 && !math.IsInf(v, 1)
		}
	}
	return 0, false
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

// spread returns the min and max samples — the run-to-run spread
// reported next to the median.
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
// mean) of the samples — the dimensionless noise figure reported next
// to every median. Zero for fewer than two samples or a non-positive
// mean. Rounded to four decimals so the verdict stays readable.
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

// verdict is the gate's JSON artifact.
type verdict struct {
	Benchmark   string                 `json:"benchmark"`
	Metric      string                 `json:"metric"`
	Alpha       float64                `json:"alpha"`
	Floor       float64                `json:"floor"`
	Kinds       map[string]kindVerdict `json:"kinds"`
	Regressions []string               `json:"regressions"`
}

type kindVerdict struct {
	// Gated is false for a kind only HEAD ran.
	Gated bool `json:"gated"`
	// Ratio is the median of the per-cell HEAD/base median ratios; P
	// the one-sided Mann-Whitney p-value of HEAD's base-normalized
	// samples running lower than base's.
	Ratio float64                `json:"ratio,omitempty"`
	P     float64                `json:"p,omitempty"`
	Cells map[string]cellVerdict `json:"cells"`
}

type cellVerdict struct {
	Base  *cellStat `json:"base,omitempty"`
	Head  *cellStat `json:"head,omitempty"`
	Ratio float64   `json:"ratio,omitempty"`
}

// gate compares HEAD's samples with base's, kind by kind (see the
// package comment for the rule).
func gate(base, head map[string]map[string][]float64) verdict {
	res := verdict{
		Benchmark:   "BenchmarkHotPath",
		Metric:      "cycles/sec",
		Alpha:       alpha,
		Floor:       floor,
		Kinds:       make(map[string]kindVerdict),
		Regressions: []string{},
	}
	for _, k := range sortedKeys(base, head) {
		kv := kindVerdict{Gated: base[k] != nil, Cells: make(map[string]cellVerdict)}
		for c, hs := range head[k] {
			hst := cellStatOf(hs)
			kv.Cells[c] = cellVerdict{Head: &hst}
		}
		if kv.Gated && head[k] == nil {
			res.Regressions = append(res.Regressions,
				fmt.Sprintf("%s: no HEAD samples (benchmark did not run)", k))
		}
		var baseNorm, headNorm, ratios []float64
		for _, c := range sortedKeys(base[k]) {
			bs := base[k][c]
			bst := cellStatOf(bs)
			cell := kv.Cells[c]
			cell.Base = &bst
			if cell.Head == nil {
				kv.Cells[c] = cell
				if head[k] != nil {
					res.Regressions = append(res.Regressions,
						fmt.Sprintf("%s/%s: no HEAD samples (cell did not run)", k, c))
				}
				continue
			}
			cell.Ratio = cell.Head.Median / bst.Median
			kv.Cells[c] = cell
			ratios = append(ratios, cell.Ratio)
			for _, v := range bs {
				baseNorm = append(baseNorm, v/bst.Median)
			}
			for _, v := range head[k][c] {
				headNorm = append(headNorm, v/bst.Median)
			}
		}
		if len(ratios) > 0 {
			kv.Ratio = median(ratios)
			_, kv.P = stats.MannWhitneyLess(headNorm, baseNorm)
			if kv.P < alpha && kv.Ratio < floor {
				res.Regressions = append(res.Regressions, fmt.Sprintf(
					"%s: HEAD runs at %.3f of base (floor %.2f), p=%.2g (alpha %.2f)",
					k, kv.Ratio, floor, kv.P, alpha))
			}
		}
		res.Kinds[k] = kv
	}
	return res
}

// sortedKeys returns the union of the maps' keys in sorted order.
func sortedKeys[V any](ms ...map[string]V) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func main() {
	var (
		basePath = flag.String("base", "", "go test -bench output of the base (merge-base) build")
		headPath = flag.String("head", "", "go test -bench output of the HEAD build")
		outPath  = flag.String("out", "", "write the verdict as JSON here")
	)
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fatal("-base and -head are both required")
	}
	base, err := readBench(*basePath)
	if err != nil {
		fatal("%v", err)
	}
	head, err := readBench(*headPath)
	if err != nil {
		fatal("%v", err)
	}
	if len(base) == 0 {
		fatal("%s has no BenchmarkHotPath samples: nothing to gate", *basePath)
	}

	res := gate(base, head)
	if *outPath != "" {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*outPath, append(out, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	for _, k := range sortedKeys(res.Kinds) {
		kv := res.Kinds[k]
		if !kv.Gated {
			fmt.Printf("benchgate: %-20s not gated (base did not run it)\n", k)
		} else {
			fmt.Printf("benchgate: %-20s HEAD/base %.3f  p %.2g\n", k, kv.Ratio, kv.P)
		}
		for _, c := range sortedKeys(kv.Cells) {
			cell := kv.Cells[c]
			fmt.Printf("benchgate:   %-12s base %s  head %s  ratio %.3f\n",
				c, cell.Base, cell.Head, cell.Ratio)
		}
	}
	if len(res.Regressions) > 0 {
		for _, r := range res.Regressions {
			fmt.Fprintf(os.Stderr, "benchgate: REGRESSION %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%d kinds; none both p < %.2f and below %.2f of base)\n",
		len(res.Kinds), alpha, floor)
}

// String formats a cell's median and cv for the report; "-" when the
// side did not run the cell.
func (s *cellStat) String() string {
	if s == nil {
		return fmt.Sprintf("%20s", "-")
	}
	return fmt.Sprintf("%12.0f cv %.3f", s.Median, s.CV)
}

// readBench parses one bench output file.
func readBench(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(2)
}
