// benchguard compares `go test -bench` output against a checked-in ns/op
// baseline and fails on regressions beyond a tolerance. It exists so the CI
// perf guard is a versioned, reviewable program instead of a shell-and-awk
// incantation: the baseline file records what the kernels cost when it was
// last regenerated, and any change that makes the DP or edge-cell hot
// paths >25% slower per op turns the build red before it merges.
//
// The baseline may also guard bytes: its optional bytes_per_op map holds a
// median B/op per benchmark, compared with its own bytes_tolerance_pct. A
// change that brings back an allocation the search had shed, such as a
// whole edge matrix where only the filled cells were kept, then fails here
// instead of passing as a small slowdown. B/op needs -benchmem (or
// b.ReportAllocs) in the input. -update keeps the old baseline's
// bytes_tolerance_pct and guards the bytes of the benchmarks its
// bytes_per_op names; to guard another, add its name to that map and
// regenerate.
//
// Usage:
//
//	go test -run '^$' -bench 'EdgeCellBlock|SegmentDPCold' -benchmem -count=5 ./... | benchguard -baseline golden/bench_baseline.json
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
	// BytesTolerancePct is the allowed median B/op growth in percent.
	BytesTolerancePct float64 `json:"bytes_tolerance_pct,omitempty"`
	// BytesPerOp maps the benchmarks whose bytes are guarded to their
	// baseline median B/op.
	BytesPerOp map[string]float64 `json:"bytes_per_op,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, with its
// B/op when the line has one, e.g.
//
//	BenchmarkEdgeMatStage-8   7096   168966 ns/op   123.0 cells/op   73112 B/op   1956 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9.]+) B/op)?`)

// samples holds every ns/op and B/op sample per benchmark name.
type samples struct {
	ns, bytes map[string][]float64
}

// parseBench collects the samples of every result line in r.
func parseBench(r io.Reader) (samples, error) {
	out := samples{ns: make(map[string][]float64), bytes: make(map[string][]float64)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		for i, into := range []map[string][]float64{out.ns, out.bytes} {
			if m[2+i] == "" {
				continue
			}
			v, err := strconv.ParseFloat(m[2+i], 64)
			if err != nil {
				return out, fmt.Errorf("benchguard: bad number in %q: %w", sc.Text(), err)
			}
			into[m[1]] = append(into[m[1]], v)
		}
	}
	return out, sc.Err()
}

// guard compares the medians of got against base for every name in base,
// each allowed tol percent above its baseline, prints a verdict line per
// name and returns the number that failed. A name without samples fails;
// hint says what to check.
func guard(unit string, base map[string]float64, got map[string][]float64, tol float64, hint string) int {
	failed := 0
	for _, name := range sortedKeys(base) {
		xs, ok := got[name]
		if !ok {
			fmt.Printf("FAIL %s: %s in baseline but absent from input (%s)\n", name, unit, hint)
			failed++
			continue
		}
		med := median(xs)
		pct := (med/base[name] - 1) * 100
		verdict := "ok  "
		if pct > tol {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %s: median %.1f %s vs baseline %.1f (%+.1f%%, limit +%.0f%%, %d reps)\n",
			verdict, name, med, unit, base[name], pct, tol, len(xs))
	}
	return failed
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
		"allowed ns/op regression percent when writing a new baseline")
	list := flag.Bool("list", false,
		"print the baseline's benchmarks and thresholds instead of comparing")
	flag.Parse()

	if *list {
		doc, err := readBaseline(*baselinePath)
		if err != nil {
			return err
		}
		fmt.Printf("baseline %s: %d benchmarks, tolerance +%.0f%%\n",
			*baselinePath, len(doc.NsPerOp), doc.TolerancePct)
		for _, name := range sortedKeys(doc.NsPerOp) {
			base := doc.NsPerOp[name]
			fmt.Printf("  %s: %.1f ns/op (fails above %.1f)\n",
				name, base, base*(1+doc.TolerancePct/100))
		}
		if len(doc.BytesPerOp) > 0 {
			fmt.Printf("bytes: %d benchmarks, tolerance +%.0f%%\n", len(doc.BytesPerOp), doc.BytesTolerancePct)
		}
		for _, name := range sortedKeys(doc.BytesPerOp) {
			base := doc.BytesPerOp[name]
			fmt.Printf("  %s: %.0f B/op (fails above %.0f)\n",
				name, base, base*(1+doc.BytesTolerancePct/100))
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
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got.ns) == 0 {
		return fmt.Errorf("benchguard: no benchmark results in input")
	}

	if *update {
		var old baselineDoc
		if _, err := os.Stat(*baselinePath); err == nil {
			if old, err = readBaseline(*baselinePath); err != nil {
				return err
			}
		}
		if len(old.BytesPerOp) > 0 && old.BytesTolerancePct <= 0 {
			return fmt.Errorf("benchguard: %s guards bytes with no bytes tolerance", *baselinePath)
		}
		doc := baselineDoc{TolerancePct: *tolerance, NsPerOp: make(map[string]float64)}
		for name, xs := range got.ns {
			doc.NsPerOp[name] = median(xs)
		}
		if len(old.BytesPerOp) > 0 {
			doc.BytesTolerancePct, doc.BytesPerOp = old.BytesTolerancePct, make(map[string]float64)
		}
		for _, name := range sortedKeys(old.BytesPerOp) {
			xs, ok := got.bytes[name]
			if !ok {
				return fmt.Errorf("benchguard: no B/op for %s in input (run with -benchmem)", name)
			}
			doc.BytesPerOp[name] = median(xs)
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks, tolerance %.0f%%; %d guarded for bytes, tolerance %.0f%%)\n",
			*baselinePath, len(doc.NsPerOp), doc.TolerancePct, len(doc.BytesPerOp), doc.BytesTolerancePct)
		return nil
	}

	doc, err := readBaseline(*baselinePath)
	if err != nil {
		return err
	}
	if doc.TolerancePct <= 0 || len(doc.NsPerOp) == 0 {
		return fmt.Errorf("benchguard: %s has no tolerance or no benchmarks", *baselinePath)
	}
	if len(doc.BytesPerOp) > 0 && doc.BytesTolerancePct <= 0 {
		return fmt.Errorf("benchguard: %s guards bytes with no bytes tolerance", *baselinePath)
	}
	failed := guard("ns/op", doc.NsPerOp, got.ns, doc.TolerancePct, "did the benchmark get renamed or skipped?")
	failed += guard("B/op", doc.BytesPerOp, got.bytes, doc.BytesTolerancePct, "run with -benchmem")
	for _, name := range sortedKeys(got.ns) {
		if _, ok := doc.NsPerOp[name]; !ok {
			fmt.Printf("note %s: not in baseline, ignored (regenerate with -update to track it)\n", name)
		}
	}
	if failed > 0 {
		return fmt.Errorf("benchguard: %d check(s) regressed beyond tolerance (ns/op +%.0f%%, B/op +%.0f%%)",
			failed, doc.TolerancePct, doc.BytesTolerancePct)
	}
	return nil
}

// readBaseline reads and decodes the baseline at path.
func readBaseline(path string) (baselineDoc, error) {
	var doc baselineDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("benchguard: %s: %w", path, err)
	}
	return doc, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
