// benchguard compares `go test -bench` output against a checked-in ns/op
// baseline and fails on regressions beyond a tolerance. It exists so the CI
// perf guard is a versioned, reviewable program instead of a shell-and-awk
// incantation: the baseline file records what the kernels cost when it was
// last regenerated, and any change that makes the DP or edge-cell hot
// paths >25% slower per op turns the build red before it merges.
//
// Usage:
//
//	go test -run '^$' -bench 'EdgeCellBlock|SegmentDPCold' -count=5 ./... | benchguard -baseline golden/bench_baseline.json
//	benchguard -baseline golden/bench_baseline.json -update bench_output.txt
//	benchguard -baseline golden/bench_baseline.json -list
//
// The median across repetitions is compared, not the mean: one noisy
// repetition on a shared CI runner must not fail (or excuse) a run. Every
// benchmark named in the baseline must appear in the input — a guard that
// silently stops running a benchmark is itself a regression. Benchmarks in
// the input but not the baseline are reported and otherwise ignored, so
// adding a new benchmark does not force a baseline regeneration.
//
// Baselines are machine-relative. Regenerate with -update (on the same
// class of machine CI uses) whenever an intentional perf change moves a
// kernel, and commit the new file alongside the change that moved it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// baselineDoc is the golden/bench_baseline.json schema.
type baselineDoc struct {
	// TolerancePct is the allowed median ns/op regression in percent.
	TolerancePct float64 `json:"tolerance_pct"`
	// NsPerOp maps the benchmark name (GOMAXPROCS suffix stripped) to its
	// baseline median ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkEdgeMatStage-8   7096   168966 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench collects every ns/op sample per benchmark name from r.
func parseBench(r io.Reader) (map[string][]float64, error) {
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op in %q: %w", sc.Text(), err)
		}
		samples[m[1]] = append(samples[m[1]], v)
	}
	return samples, sc.Err()
}

// median of a non-empty sample set; for even sizes the lower-middle value,
// which is deterministic and slightly regression-friendly (harder to pass).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func run() error {
	baselinePath := flag.String("baseline", "golden/bench_baseline.json",
		"baseline JSON to compare against (or write, with -update)")
	update := flag.Bool("update", false,
		"regenerate the baseline from the input instead of comparing")
	tolerance := flag.Float64("tolerance", 25,
		"allowed regression percent when writing a new baseline")
	list := flag.Bool("list", false,
		"print the baseline's benchmarks and thresholds instead of comparing")
	flag.Parse()

	if *list {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			return err
		}
		var doc baselineDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("benchguard: %s: %w", *baselinePath, err)
		}
		names := make([]string, 0, len(doc.NsPerOp))
		for name := range doc.NsPerOp {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("baseline %s: %d benchmarks, tolerance +%.0f%%\n",
			*baselinePath, len(names), doc.TolerancePct)
		for _, name := range names {
			base := doc.NsPerOp[name]
			fmt.Printf("  %s: %.1f ns/op (fails above %.1f)\n",
				name, base, base*(1+doc.TolerancePct/100))
		}
		return nil
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		return fmt.Errorf("benchguard: at most one input file, got %d", flag.NArg())
	}
	samples, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("benchguard: no benchmark results in input")
	}

	if *update {
		doc := baselineDoc{TolerancePct: *tolerance, NsPerOp: make(map[string]float64)}
		for name, xs := range samples {
			doc.NsPerOp[name] = median(xs)
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks, tolerance %.0f%%)\n",
			*baselinePath, len(doc.NsPerOp), doc.TolerancePct)
		return nil
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var doc baselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("benchguard: %s: %w", *baselinePath, err)
	}
	if doc.TolerancePct <= 0 || len(doc.NsPerOp) == 0 {
		return fmt.Errorf("benchguard: %s has no tolerance or no benchmarks", *baselinePath)
	}

	names := make([]string, 0, len(doc.NsPerOp))
	for name := range doc.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		base := doc.NsPerOp[name]
		xs, ok := samples[name]
		if !ok {
			fmt.Printf("FAIL %s: in baseline but absent from input (did the benchmark get renamed or skipped?)\n", name)
			failed++
			continue
		}
		med := median(xs)
		pct := (med/base - 1) * 100
		verdict := "ok  "
		if pct > doc.TolerancePct {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %s: median %.1f ns/op vs baseline %.1f (%+.1f%%, limit +%.0f%%, %d reps)\n",
			verdict, name, med, base, pct, doc.TolerancePct, len(xs))
	}
	for name := range samples {
		if _, ok := doc.NsPerOp[name]; !ok {
			fmt.Printf("note %s: not in baseline, ignored (regenerate with -update to track it)\n", name)
		}
	}
	if failed > 0 {
		return fmt.Errorf("benchguard: %d benchmark(s) regressed beyond %.0f%%", failed, doc.TolerancePct)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
