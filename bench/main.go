// Command bench is the repository's benchmark: four workloads that drive the
// planner through its public entry points — core.Plan and EstimatePlan,
// pipeline.Plan3D, the PPSC disk cache and a spawned primepard — and report
// end-to-end metrics (untraced) or per-layer metrics (traced), after checking
// every answer against the golden digests or fresh-cache re-plans.
//
// Build and run it from the repository root through bench/run.sh, which
// builds this program and primepard into .bench_build:
//
//	bash bench/run.sh --workload cold-table2 --seed 1 --seconds 25 --trace 0 --out .bench_build/A1-cold.json
//	bash bench/run.sh compare -base '.bench_build/A*.json' -head '.bench_build/B*.json'
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, where metrics are the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1) that BENCHMARK.json
// declares. A wrong answer makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
)

// workDir holds build outputs, scratch cache directories and traces; the
// repository's .gitignore names it.
const workDir = ".bench_build"

// envRecord is the environment a report was measured in; compare refuses
// reports whose environments differ.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    string `json:"primepar_workers"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Seed       int64  `json:"seed"`
	WindowS    int    `json:"window_s"`
}

func currentEnv(o runOpts) envRecord {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var modified bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			rev += "+dirty"
		}
	}
	return envRecord{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: os.Getenv("PRIMEPAR_WORKERS"), GoVersion: runtime.Version(), Revision: rev,
		Seed: o.Seed, WindowS: o.Seconds}
}

// sampleCounts says how many samples stand behind a workload's metrics.
type sampleCounts struct {
	Plans      int `json:"plans"`
	Cells      int `json:"cells"`
	MinPerCell int `json:"min_per_cell"`
	Setups     int `json:"setups"`
	// Intervals counts the rounds (daemon-restart: one window) that rates and
	// CPU per plan take their medians over.
	Intervals int `json:"intervals"`
}

func countSamples(m *measured) sampleCounts {
	cells := cellLatencies(m.res.ok())
	sc := sampleCounts{Plans: len(m.res.ok()), Cells: len(cells), Setups: len(m.res.SetupS), Intervals: len(m.res.Intervals)}
	for _, xs := range cells {
		if sc.MinPerCell == 0 || len(xs) < sc.MinPerCell {
			sc.MinPerCell = len(xs)
		}
	}
	return sc
}

// workloadReport is one workload's section of the report document.
type workloadReport struct {
	Name string `json:"name"`
	// Traced runs record spans; their end-to-end values serve only to
	// measure the tracing overhead.
	Traced   bool               `json:"traced"`
	EndToEnd map[string]metric  `json:"end_to_end"`
	Samples  sampleCounts       `json:"samples"`
	PerLayer map[string]metric  `json:"per_layer,omitempty"`
	Detail   map[string]metric  `json:"detail,omitempty"`
	SelfMS   map[string]float64 `json:"self_ms,omitempty"`
	Checks   checks             `json:"checks"`
}

func (w *workloadReport) correct() bool {
	return w.Checks.DigestMismatch == 0 && len(w.Checks.Problems) == 0
}

// report is the JSON document -out writes: one workload run.
type report struct {
	Env      envRecord       `json:"env"`
	Workload *workloadReport `json:"workload"`
}

func measure(name string, o runOpts, rec *recorder) (*measured, error) {
	if name == daemonRestart {
		return measureDaemon(o, rec)
	}
	return measureInProcess(name, o, rec)
}

// runWorkload measures one workload once, traced or not, and fills its
// report section.
func runWorkload(name string, o runOpts) (*workloadReport, []span, error) {
	var rec *recorder
	if o.Trace {
		rec = &recorder{}
	}
	m, err := measure(name, o, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	rep := &workloadReport{Name: name, Traced: o.Trace, EndToEnd: endToEnd(m), Samples: countSamples(m),
		Detail: detail(name, m), Checks: m.checks}
	if !o.Trace {
		return rep, nil, nil
	}
	rep.PerLayer = perLayer(m)
	spans := rec.all()
	rep.SelfMS = selfTimes(spans)
	return rep, spans, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		ok, err := compareMain(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var (
		workload  = flag.String("workload", "", "the workload to run: cold-table2, scale-sweep, joint-3d or daemon-restart")
		seed      = flag.Int64("seed", 1, "workload seed: it shuffles cell order and draws cold batch sizes")
		seconds   = flag.Int("seconds", 25, "measured window of each workload run, in seconds")
		trace     = flag.Int("trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
		traceOut  = flag.String("trace-out", filepath.Join(workDir, "trace.json"), "where a traced run writes its Chrome trace-event JSON")
		out       = flag.String("out", "", "write the JSON report document here")
		primepard = flag.String("primepard", filepath.Join(workDir, "primepard"), "primepard binary daemon-restart spawns")
		golden    = flag.String("golden", "golden", "directory holding table2_digest.json and plan3d_digest.json")
		child     = flag.String("child", "", "internal: run this in-process workload as a measured child")
	)
	flag.Parse()
	o := runOpts{Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Primepard: *primepard, Golden: *golden, WorkDir: workDir}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *child != "" {
		if err := childMain(*child, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	o.Exe = exe

	ok, err := runOne(*workload, o, *traceOut, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in one mode and prints a table, then the result
// object as the last line.
func runOne(name string, o runOpts, traceOut, out string, w io.Writer) (bool, error) {
	rep, spans, err := runWorkload(name, o)
	if err != nil {
		return false, err
	}
	metrics := rep.EndToEnd
	if o.Trace {
		metrics = rep.PerLayer
		if err := writeChromeTrace(traceOut, name, spans); err != nil {
			return false, err
		}
	}
	printTable(w, rep)
	printProblems(rep)
	if out != "" {
		if err := writeReport(out, report{currentEnv(o), rep}); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), max(rep.Checks.Attempted, 1), rep.Checks.Failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(line))
	return rep.correct(), nil
}

func writeReport(path string, doc report) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints one "workload/name value unit" line per metric.
func printTable(w io.Writer, rep *workloadReport) {
	for _, group := range []map[string]metric{rep.EndToEnd, rep.PerLayer, rep.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-48s %16.6g %s\n", rep.Name+"/"+n, group[n].Value, group[n].Unit)
		}
	}
	c := rep.Checks
	fmt.Fprintf(w, "%-48s %16d count\n", rep.Name+"/digest_mismatch", c.DigestMismatch)
	fmt.Fprintf(w, "%-48s %16.6g fraction\n", rep.Name+"/failed_frac", c.FailedFrac)
}

func printProblems(rep *workloadReport) {
	for _, p := range rep.Checks.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", rep.Name, p)
	}
}
