package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchFixture is real-shaped `go test -bench -count=3` output from
// the multi-cell suite: three samples at apache/s11, extra
// workload/seed cells, kind names containing dashes, a line with no
// GOMAXPROCS suffix, plus noise lines the parser must skip.
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
	if got := grouped["NoDMR"]["apache/s11"]; len(got) != 3 || got[0] != 1600000 {
		t.Fatalf("NoDMR apache/s11 samples: %v", got)
	}
	if got := grouped["NoDMR"]["oltp/s12"]; len(got) != 1 || got[0] != 2000000 {
		t.Fatalf("NoDMR oltp/s12 samples: %v", got)
	}
	// Dashed kind names must survive the GOMAXPROCS-suffix strip.
	if got := grouped["MMM-IPC"]["apache/s11"]; len(got) != 3 || got[1] != 900000 {
		t.Fatalf("MMM-IPC samples: %v", got)
	}
	// GOMAXPROCS=1 output has no -N suffix.
	if got := grouped["SingleOS"]["apache/s11"]; len(got) != 1 || got[0] != 4000000 {
		t.Fatalf("SingleOS samples: %v", got)
	}
	// A cell-less line cannot be gated: it is an error naming the
	// expected form, not a silently dropped sample.
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
		{"NoDMR/apache/s11-4", "NoDMR", "apache/s11", true},
		{"MMM-IPC/oltp/s13", "MMM-IPC", "oltp/s13", true},
		{"SingleOS", "", "", false},
		{"SingleOS/apache", "", "", false},
		{"SingleOS/apache/11", "", "", false},
		{"SingleOS/apache/s11-", "", "", false},
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

// hotPathSpeeds are per-kind cycles/sec levels of very different
// magnitude, like the real suite's: pooling must not let the fast kind
// or cell dominate.
var hotPathSpeeds = map[string]float64{"NoDMR": 1.6e6, "NoDMR2X": 3.2e6, "MMM-TP": 0.9e6}

// synthBench renders `go test -bench` output for three rounds of the
// 2-workload × 3-seed grid of every kind in hotPathSpeeds, each sample
// the kind's speed (varied per cell) times scale and ±2% noise drawn
// from rng.
func synthBench(rng *rand.Rand, scale float64) string {
	var b strings.Builder
	for round := 0; round < 3; round++ {
		for _, k := range sortedKeys(hotPathSpeeds) {
			for i, cell := range []string{"apache/s11", "apache/s12", "apache/s13", "oltp/s11", "oltp/s12", "oltp/s13"} {
				v := hotPathSpeeds[k] * (1 + 0.1*float64(i)) * scale * (0.98 + 0.04*rng.Float64())
				fmt.Fprintf(&b, "BenchmarkHotPath/%s/%s-2 \t     100\t  10000000 ns/op\t %.0f cycles/sec\n", k, cell, v)
			}
		}
	}
	return b.String()
}

func mustParse(t *testing.T, out string) map[string]map[string][]float64 {
	t.Helper()
	g, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scaled returns a copy of grouped with every sample multiplied by s:
// the same relative data measured on a slower or faster box.
func scaled(grouped map[string]map[string][]float64, s float64) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64, len(grouped))
	for k, cells := range grouped {
		out[k] = make(map[string][]float64, len(cells))
		for c, ss := range cells {
			vs := make([]float64, len(ss))
			for i, v := range ss {
				vs[i] = v * s
			}
			out[k][c] = vs
		}
	}
	return out
}

// TestGate: an A/A comparison passes, HEAD at 0.9x of base fails every
// kind, and neither verdict moves when both sides are measured on a
// box 0.4x or 2.5x as fast.
func TestGate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := mustParse(t, synthBench(rng, 1))
	same := mustParse(t, synthBench(rng, 1))
	slow := mustParse(t, synthBench(rng, 0.9))

	aa := gate(base, same)
	if len(aa.Regressions) != 0 {
		t.Fatalf("A/A flagged: %v", aa.Regressions)
	}
	ab := gate(base, slow)
	if len(ab.Regressions) != len(hotPathSpeeds) {
		t.Fatalf("HEAD at 0.9x: regressions %v, want one per kind", ab.Regressions)
	}
	for k := range hotPathSpeeds {
		kv := ab.Kinds[k]
		if !kv.Gated || kv.Ratio >= floor || kv.P >= alpha {
			t.Errorf("%s at 0.9x: %+v, want gated, ratio below %v, p < %v", k, kv, floor, alpha)
		}
		if c := kv.Cells["oltp/s13"]; c.Base == nil || c.Head == nil || c.Ratio >= floor {
			t.Errorf("%s/oltp/s13 at 0.9x: %+v", k, c)
		}
	}

	for _, tc := range []struct {
		head map[string]map[string][]float64
		want verdict
	}{{same, aa}, {slow, ab}} {
		for _, s := range []float64{0.4, 2.5} {
			got := gate(scaled(base, s), scaled(tc.head, s))
			if !reflect.DeepEqual(got.Regressions, tc.want.Regressions) {
				t.Errorf("box %vx: regressions %v, want %v", s, got.Regressions, tc.want.Regressions)
			}
			for k, kv := range tc.want.Kinds {
				g := got.Kinds[k]
				if math.Abs(g.Ratio-kv.Ratio) > 1e-12 || math.Abs(g.P-kv.P) > 1e-12 {
					t.Errorf("box %vx: %s ratio %v p %v, want %v %v", s, k, g.Ratio, g.P, kv.Ratio, kv.P)
				}
			}
		}
	}
}

// TestGateMissingAndNewKinds: a kind or cell the base ran and HEAD did
// not fails; a kind only HEAD ran is reported but not gated, and a cell
// only HEAD ran is reported and not pooled.
func TestGateMissingAndNewKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := mustParse(t, synthBench(rng, 1))
	head := mustParse(t, synthBench(rng, 1))

	delete(head, "MMM-TP")
	delete(head["NoDMR"], "oltp/s12")
	head["NoDMR"]["pmake/s11"] = []float64{1, 1, 1}
	head["Reunion"] = map[string][]float64{"apache/s11": {1e6, 1e6, 1e6}}
	res := gate(base, head)
	want := []string{
		"MMM-TP: no HEAD samples (benchmark did not run)",
		"NoDMR/oltp/s12: no HEAD samples (cell did not run)",
	}
	if !reflect.DeepEqual(res.Regressions, want) {
		t.Fatalf("regressions %q, want %q", res.Regressions, want)
	}
	if kv, ok := res.Kinds["Reunion"]; !ok || kv.Gated || kv.Cells["apache/s11"].Head == nil {
		t.Fatalf("HEAD-only kind: %+v (present %v), want reported, not gated", kv, ok)
	}
	// The HEAD-only cell's samples (1 cycle/sec) would sink NoDMR if
	// they were pooled against some other cell's base median.
	nd := res.Kinds["NoDMR"]
	if c := nd.Cells["pmake/s11"]; c.Base != nil || c.Head == nil || c.Ratio != 0 {
		t.Fatalf("HEAD-only cell: %+v", c)
	}
	if nd.Ratio < 0.95 {
		t.Fatalf("NoDMR ratio %v: HEAD-only cell pooled", nd.Ratio)
	}
}

// TestGateFloorBoundary: a kind fails only when HEAD is significantly
// slower AND its median ratio is strictly below the floor.
func TestGateFloorBoundary(t *testing.T) {
	// Eight samples per side, cleanly separated once scaled: p well
	// below alpha. Power-of-two base medians keep every cell's ratio at
	// exactly the scale factor.
	base := map[string]map[string][]float64{"A": {
		"apache/s11": {1023, 1024, 1026, 1027},
		"oltp/s11":   {2047, 2048, 2050, 2051},
	}}
	res := gate(base, scaled(base, floor))
	if kv := res.Kinds["A"]; kv.Ratio != floor || kv.P >= alpha {
		t.Fatalf("at floor: %+v, want ratio exactly %v and p < %v", kv, floor, alpha)
	}
	if len(res.Regressions) != 0 {
		t.Errorf("ratio exactly at the floor flagged: %v", res.Regressions)
	}
	if res := gate(base, scaled(base, 0.94)); len(res.Regressions) != 1 {
		t.Errorf("significant ratio below the floor not flagged: %v", res.Regressions)
	}
	// Far below the floor but one sample per side: no significance,
	// no failure.
	one := map[string]map[string][]float64{"A": {"apache/s11": {1024}}}
	if res := gate(one, scaled(one, 0.5)); len(res.Regressions) != 0 {
		t.Errorf("single-sample halving flagged: %+v", res)
	}
}

// TestGateRecordsCV: the verdict carries each side's spread and
// coefficient of variation next to every cell median.
func TestGateRecordsCV(t *testing.T) {
	base := map[string]map[string][]float64{"A": {"apache/s11": {90, 110}, "oltp/s12": {100, 100}}}
	head := map[string]map[string][]float64{"A": {"apache/s11": {95, 105}, "oltp/s12": {90, 110}}}
	res := gate(base, head)
	c := res.Kinds["A"].Cells["apache/s11"]
	if c.Base.CV != 0.1 || c.Base.Min != 90 || c.Base.Max != 110 || c.Head.CV != 0.05 {
		t.Errorf("apache/s11: base %+v head %+v, want cv 0.1 [90..110] / cv 0.05", c.Base, c.Head)
	}
	if c := res.Kinds["A"].Cells["oltp/s12"]; c.Base.CV != 0 || c.Head.CV != 0.1 {
		t.Errorf("oltp/s12: base %+v head %+v, want cv 0 / 0.1", c.Base, c.Head)
	}
}

// FuzzParseBench checks parseBench on arbitrary text against an oracle
// written without its regexp: it never panics; it fails exactly when a
// line whose first field starts with BenchmarkHotPath/ names no
// <kind>/<workload>/s<seed> cell; and every sample it returns is a
// finite positive number that a line naming that cell reports before a
// "cycles/sec" field, with no more samples than such lines. Seeds live
// in testdata/fuzz/FuzzParseBench.
func FuzzParseBench(f *testing.F) {
	f.Fuzz(func(t *testing.T, out string) {
		got, err := parseBench(strings.NewReader(out))
		var lines [][]string
		bad := false
		for _, l := range strings.Split(out, "\n") {
			fs := strings.Fields(l)
			if len(fs) == 0 || !strings.HasPrefix(fs[0], benchPrefix) {
				continue
			}
			lines = append(lines, fs)
			bad = bad || !namesCell(strings.TrimPrefix(fs[0], benchPrefix))
		}
		if (err != nil) != bad {
			t.Fatalf("err %v, but a line naming no cell: %v", err, bad)
		}
		for k, cells := range got {
			for c, ss := range cells {
				name := k + "/" + c
				if !namesCell(name) {
					t.Fatalf("returned cell %q is no cell", name)
				}
				var reported []float64
				n := 0
				for _, fs := range lines {
					if l := strings.TrimPrefix(fs[0], benchPrefix); l != name && !strings.HasPrefix(l, name+"-") {
						continue
					}
					n++
					for i := 1; i < len(fs); i++ {
						if fs[i] == "cycles/sec" {
							if v, err := strconv.ParseFloat(fs[i-1], 64); err == nil {
								reported = append(reported, v)
							}
						}
					}
				}
				if len(ss) > n {
					t.Fatalf("%s: %d samples from %d lines", name, len(ss), n)
				}
				for _, v := range ss {
					if !(v > 0) || math.IsInf(v, 0) {
						t.Fatalf("%s: sample %v is not finite positive", name, v)
					}
					if !slices.Contains(reported, v) {
						t.Fatalf("%s: sample %v not reported by any line naming the cell", name, v)
					}
				}
			}
		}
	})
}

// namesCell is the fuzz oracle's reading of the cell form:
// <kind>/<workload>/s<digits>, optionally followed by -<digits>.
func namesCell(name string) bool {
	parts := strings.Split(name, "/")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return false
	}
	seed := parts[2]
	if i := strings.LastIndexByte(seed, '-'); i >= 0 {
		if !allDigits(seed[i+1:]) {
			return false
		}
		seed = seed[:i]
	}
	return strings.HasPrefix(seed, "s") && allDigits(seed[1:])
}

// allDigits reports whether s is one or more ASCII digits.
func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return s != ""
}
