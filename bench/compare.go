package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readReports(paths []string) ([]report, error) {
	var out []report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// comparable reports whether two environments may be compared: the same CPU
// count, worker pool, toolchain and window.
func comparable(a, b envRecord) bool {
	return a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS && a.Workers == b.Workers &&
		a.GoVersion == b.GoVersion && a.WindowS == b.WindowS
}

// row is one (workload, metric) line of a comparison.
type row struct {
	workload, metric, unit string
	base, head             []float64
	wins                   float64
	verdict                string
}

// quartiles are the first, second and third quartiles of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// judge applies the benchmark's rule: regressed when the head median is
// worse than the base median by more than the bound; improved when the head
// wins at least nine tenths of the pairs and the medians differ by more than
// the base's interquartile distance; unresolved when either side's spread
// exceeds the bound, unless every head run beats every base run; otherwise
// unchanged.
func judge(base, head []float64, better string, bound float64) (verdict string, wins float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	b1, bm, b3 := quartiles(base)
	h1, hm, h3 := quartiles(head)
	pairs := min(len(base), len(head))
	won := 0
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			won++
		}
	}
	wins = ratio(float64(won), float64(pairs))
	worse := sign * ratio(hm-bm, math.Abs(bm))
	spread := max(ratio(b3-b1, math.Abs(bm)), ratio(h3-h1, math.Abs(hm)))
	allBetter := slices.Max(head) < slices.Min(base)
	if better == "higher" {
		allBetter = slices.Min(head) > slices.Max(base)
	}
	switch {
	case worse > bound:
		return "regressed", wins
	case wins >= 0.9 && worse < 0 && math.Abs(hm-bm) > b3-b1:
		return "improved", wins
	case spread > bound && !allBetter:
		return "unresolved", wins
	}
	return "unchanged", wins
}

// compareMain parses "-base FILES... -head FILES... [-spec BENCHMARK.json]"
// (globs are expanded), prints one row per (workload, end-to-end metric) of
// the untraced reports and the tracing overhead of each side that has traced
// reports too, and reports false when any row regressed or is unresolved.
func compareMain(args []string, w io.Writer) (bool, error) {
	var base, head []string
	spec := "BENCHMARK.json"
	var cur *[]string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-base", "--base":
			cur = &base
		case "-head", "--head":
			cur = &head
		case "-spec", "--spec":
			if i+1 == len(args) {
				return false, fmt.Errorf("-spec needs a path")
			}
			i++
			spec, cur = args[i], nil
		default:
			if cur == nil {
				return false, fmt.Errorf("usage: compare -base FILES... -head FILES... [-spec BENCHMARK.json]")
			}
			matches, err := filepath.Glob(a)
			if err != nil || len(matches) == 0 {
				matches = []string{a}
			}
			*cur = append(*cur, matches...)
		}
	}
	if len(base) == 0 || len(head) == 0 {
		return false, fmt.Errorf("usage: compare -base FILES... -head FILES... [-spec BENCHMARK.json]")
	}
	sp, err := readSpec(spec)
	if err != nil {
		return false, err
	}
	br, err := readReports(base)
	if err != nil {
		return false, err
	}
	hr, err := readReports(head)
	if err != nil {
		return false, err
	}
	env := br[0].Env
	for i, r := range append(append([]report(nil), br...), hr...) {
		if !comparable(env, r.Env) {
			return false, fmt.Errorf("report %d was measured in another environment (%+v vs %+v)", i, r.Env, env)
		}
	}

	var rows []row
	for _, wl := range workloadNames {
		bw, hw := sectionOf(br, wl, false), sectionOf(hr, wl, false)
		if len(bw) == 0 || len(hw) == 0 {
			continue
		}
		for _, def := range sp.EndToEnd {
			bv, hv := valuesOf(bw, def.Name), valuesOf(hw, def.Name)
			if len(bv) != len(bw) || len(hv) != len(hw) {
				return false, fmt.Errorf("%s: %s missing from some reports", wl, def.Name)
			}
			v, wins := judge(bv, hv, def.Better, def.Bound)
			rows = append(rows, row{wl, def.Name, def.Unit, bv, hv, wins, v})
		}
		// Failures and wrong answers are regressions at any increase.
		for _, c := range []struct {
			name string
			get  func(checks) float64
		}{
			{"failed_frac", func(c checks) float64 { return c.FailedFrac }},
			{"digest_mismatch", func(c checks) float64 { return float64(c.DigestMismatch) }},
		} {
			var bv, hv []float64
			for _, s := range bw {
				bv = append(bv, c.get(s.Checks))
			}
			for _, s := range hw {
				hv = append(hv, c.get(s.Checks))
			}
			v := "unchanged"
			if slices.Max(hv) > slices.Max(bv) {
				v = "regressed"
			}
			rows = append(rows, row{wl, c.name, "", bv, hv, 0, v})
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tchange\tpairs won\tverdict\n")
	ok := true
	for _, r := range rows {
		b1, bm, b3 := quartiles(r.base)
		h1, hm, h3 := quartiles(r.head)
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%+.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, bm, b1, b3, r.unit, hm, h1, h3, r.unit,
			100*ratio(hm-bm, math.Abs(bm)), 100*r.wins, r.verdict)
		if r.verdict == "regressed" || r.verdict == "unresolved" {
			ok = false
		}
	}
	untraced := func(reps []report) (n int) {
		for _, r := range reps {
			if r.Workload != nil && !r.Workload.Traced {
				n++
			}
		}
		return n
	}
	fmt.Fprintf(tw, "\n%d base and %d head untraced reports; pairs are taken in file order.\n", untraced(br), untraced(hr))
	if err := tw.Flush(); err != nil {
		return false, err
	}
	// bench.trace_overhead_frac: 1 − traced plans_per_s ÷ untraced, medians.
	for _, wl := range workloadNames {
		for _, side := range []struct {
			name string
			reps []report
		}{{"base", br}, {"head", hr}} {
			plain := valuesOf(sectionOf(side.reps, wl, false), "plans_per_s")
			traced := valuesOf(sectionOf(side.reps, wl, true), "plans_per_s")
			if len(plain) > 0 && len(traced) > 0 {
				fmt.Fprintf(w, "%s %s bench.trace_overhead_frac %.4f (%d traced, %d untraced)\n",
					wl, side.name, 1-ratio(median(traced), median(plain)), len(traced), len(plain))
			}
		}
	}
	return ok, nil
}

func sectionOf(reps []report, workload string, traced bool) []*workloadReport {
	var out []*workloadReport
	for _, r := range reps {
		if s := r.Workload; s != nil && s.Name == workload && s.Traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func valuesOf(secs []*workloadReport, name string) []float64 {
	var out []float64
	for _, s := range secs {
		if m, ok := s.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
