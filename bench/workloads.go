package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// Workload names, in run order.
const (
	coldTable2    = "cold-table2"
	scaleSweep    = "scale-sweep"
	joint3D       = "joint-3d"
	daemonRestart = "daemon-restart"
)

var workloadNames = []string{coldTable2, scaleSweep, joint3D, daemonRestart}

// The library defaults every workload plans under: the paper's V100 testbed
// with 4 devices per node and α = 1e-12.
const (
	devicesPerNode = 4
	defaultAlpha   = 1e-12
)

// runOpts are the settings one workload run takes.
type runOpts struct {
	Seed    int64
	Seconds int
	Trace   bool
	// Quick shrinks every workload to its small cells. Only the smoke test
	// sets it, with Exe empty: re-executed children are never quick.
	Quick bool
	// Exe is this program, re-executed to run in-process workloads in a
	// fresh child; empty runs them in the calling process.
	Exe       string
	Primepard string
	Golden    string
	WorkDir   string
}

// measured is everything one workload run produced.
type measured struct {
	res    *runResult
	checks checks
}

// checks are the correctness results of a run. Every wrong answer counts in
// DigestMismatch; Problems names each.
type checks struct {
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	FailedFrac     float64  `json:"failed_frac"`
	DigestMismatch int      `json:"digest_mismatch"`
	Problems       []string `json:"problems,omitempty"`
}

func (c *checks) mismatch(format string, args ...any) {
	c.DigestMismatch++
	if len(c.Problems) < 20 {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

// digest checks one answer against the expected digest of its cell.
func (c *checks) digest(s sample, want map[string]string) {
	if w := want[s.Cell]; w == "" {
		c.mismatch("%s: no reference digest", s.Cell)
	} else if s.Digest != w {
		c.mismatch("%s: digest %.12s, want %.12s", s.Cell, s.Digest, w)
	}
}

// compare counts the window's attempts and failures and checks every answer.
func (c *checks) compare(ss []sample, want map[string]string) {
	for _, s := range ss {
		c.Attempted++
		if s.Err != "" {
			c.Failed++
			continue
		}
		c.digest(s, want)
	}
	c.FailedFrac = ratio(float64(c.Failed), float64(c.Attempted))
}

// planCell is one (model, devices, α, layers) request of an in-process
// workload.
type planCell struct {
	name    string
	cfg     model.Config
	graph   *graph.Graph
	cluster *device.Cluster
	alpha   float64
	layers  int
}

func (c planCell) optimizer(cache *core.SearchCache) *core.Optimizer {
	m := cost.NewModel(c.cluster)
	m.Alpha = c.alpha
	o := core.NewOptimizer(m)
	o.Cache = cache
	return o
}

func (c planCell) request() core.PlanRequest {
	return core.PlanRequest{Graph: c.graph, Layers: c.layers}
}

func cellName(cfg model.Config, devices int) string { return fmt.Sprintf("%s@%d", cfg.Name, devices) }

func table2Models() []model.Config {
	return []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()}
}

func smallModels() []model.Config { return []model.Config{model.OPT6B7(), model.Llama2_7B()} }

// blocks builds each model's layer graph once, timing every BuildBlock.
func blocks(cfgs []model.Config, rec *recorder, parent spanRef, res *runResult) (map[string]*graph.Graph, error) {
	out := make(map[string]*graph.Graph, len(cfgs))
	for _, cfg := range cfgs {
		sp := rec.begin("model.BuildBlock", parent, 0, cfg.Name)
		t := time.Now()
		g, err := model.BuildBlock(cfg)
		res.BuildBlockMS = append(res.BuildBlockMS, ms(time.Since(t)))
		sp.end("model", cfg.Name)
		if err != nil {
			return nil, fmt.Errorf("BuildBlock %s: %w", cfg.Name, err)
		}
		out[cfg.Name] = g
	}
	return out, nil
}

// table2Cells are cold-table2's cells: the Table 2 structures at 16 and 32
// devices (16 only when quick).
func table2Cells(quick bool, graphs map[string]*graph.Graph) []planCell {
	devs := []int{16, 32}
	cfgs := table2Models()
	if quick {
		devs, cfgs = []int{16}, cfgs[:2]
	}
	var out []planCell
	for _, cfg := range cfgs {
		for _, d := range devs {
			out = append(out, planCell{name: cellName(cfg, d), cfg: cfg, graph: graphs[cfg.Name],
				cluster: device.MustCluster(d, devicesPerNode, device.V100Profile()),
				alpha:   defaultAlpha, layers: cfg.Layers})
		}
	}
	return out
}

// sweepPoint is one point of scale-sweep's portfolio: the scale curve, then
// one-dimension deltas of the 16-device request.
type sweepPoint struct {
	tag     string
	devices int
	alpha   float64
	half    bool
}

var sweepPoints = []sweepPoint{
	{"4", 4, defaultAlpha, false},
	{"8", 8, defaultAlpha, false},
	{"16", 16, defaultAlpha, false},
	{"16-alpha1e-10", 16, 1e-10, false},
	{"16-half-layers", 16, defaultAlpha, true},
	{"16-repeat", 16, defaultAlpha, false},
}

func sweepModels(quick bool) []model.Config {
	if quick {
		return smallModels()
	}
	return model.All()
}

// sweepCells returns, per model, its six points in portfolio order.
func sweepCells(quick bool, graphs map[string]*graph.Graph) [][]planCell {
	var out [][]planCell
	for _, cfg := range sweepModels(quick) {
		var row []planCell
		for _, p := range sweepPoints {
			layers := cfg.Layers
			if p.half {
				layers = cfg.Layers / 2
			}
			row = append(row, planCell{name: cfg.Name + "/" + p.tag, cfg: cfg, graph: graphs[cfg.Name],
				cluster: device.MustCluster(p.devices, devicesPerNode, device.V100Profile()),
				alpha:   p.alpha, layers: layers})
		}
		out = append(out, row)
	}
	return out
}

func joint3DModels(quick bool) []model.Config {
	if quick {
		return smallModels()
	}
	return model.All()
}

// joint3DCells are joint-3d's cells: the models at 16 and 32 devices (16
// only when quick). Plan3D builds its own stage graphs.
func joint3DCells(quick bool) []planCell {
	devs := []int{16, 32}
	if quick {
		devs = devs[:1]
	}
	var out []planCell
	for _, cfg := range joint3DModels(quick) {
		for _, d := range devs {
			out = append(out, planCell{name: cellName(cfg, d), cfg: cfg,
				cluster: device.MustCluster(d, devicesPerNode, device.V100Profile()), alpha: defaultAlpha})
		}
	}
	return out
}

// setUp is the work before a workload's first timed call: each model's
// layer graph, and the clusters of its cells. It returns the cells in rows a
// round shuffles: one cell per row, or for scale-sweep one model's portfolio.
func setUp(name string, o runOpts, rec *recorder, parent spanRef, res *runResult) ([][]planCell, error) {
	var cfgs []model.Config
	switch name {
	case coldTable2:
		cfgs = table2Models()
	case scaleSweep:
		cfgs = sweepModels(o.Quick)
	case joint3D:
		// Plan3D builds its own stage graphs; these blocks only time the
		// model layer.
		cfgs = joint3DModels(o.Quick)
	default:
		return nil, fmt.Errorf("unknown in-process workload %q", name)
	}
	graphs, err := blocks(cfgs, rec, parent, res)
	if err != nil {
		return nil, err
	}
	var cells []planCell
	switch name {
	case scaleSweep:
		return sweepCells(o.Quick, graphs), nil
	case coldTable2:
		cells = table2Cells(o.Quick, graphs)
	case joint3D:
		cells = joint3DCells(o.Quick)
	}
	rows := make([][]planCell, len(cells))
	for i, c := range cells {
		rows[i] = []planCell{c}
	}
	return rows, nil
}

// window measures the process around the timed loop.
type window struct {
	start  time.Time
	alloc0 float64
	gc0    float64
	tot0   float64
	limit  time.Duration
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() (allocs, gcCPU, totalCPU float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return f(s[0].Value), f(s[1].Value), f(s[2].Value)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startWindow(seconds int) *window {
	w := &window{limit: time.Duration(seconds) * time.Second}
	w.alloc0, w.gc0, w.tot0 = readRuntime()
	w.start = time.Now()
	return w
}

func (w *window) open() bool { return time.Since(w.start) < w.limit }

func (w *window) finish(res *runResult) {
	res.WindowS = time.Since(w.start).Seconds()
	alloc, gc, tot := readRuntime()
	res.AllocMB = (alloc - w.alloc0) / 1e6
	res.GCCPUFrac = ratio(gc-w.gc0, tot-w.tot0)
}

// peakRSSMB reads VmHWM of /proc/<pid>/status.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// setupReps is how often an in-process run repeats its set-up; setup_s is
// the median. One set-up takes tens of microseconds, too short to time once.
// The repetitions run back to back: spacing them out or batching them was
// measured to spread setup_s more between runs.
const setupReps = 15

// runInProcess runs one in-process workload in this process: set-up,
// repeated setupReps times, then the measured window.
func runInProcess(name string, o runOpts, rec *recorder) (*runResult, error) {
	res := &runResult{}
	var rows [][]planCell
	for i := 0; i < setupReps; i++ {
		sp := rec.begin("setup", spanRef{}, 0, "")
		t := time.Now()
		r, err := setUp(name, o, rec, sp, res)
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		sp.end()
		if err != nil {
			return nil, err
		}
		rows = r
	}
	rng := rand.New(rand.NewSource(o.Seed))
	ctx := context.Background()
	// own runs f, the lifetime of one search cache, and keeps the process
	// peak RSS it reached under key.
	peaks := map[string][]float64{}
	own := func(key string, f func()) {
		resetPeakRSS()
		f()
		peaks[key] = append(peaks[key], peakRSSMB("self"))
	}
	// A round visits every cell once in a seeded order; rounds run whole, so
	// every cell has the same number of samples. scale-sweep's cache lives
	// for a round, the others' for one call.
	round := func(parent spanRef) {
		order := rng.Perm(len(rows))
		if name == scaleSweep {
			own("round", func() {
				cache := core.NewSearchCache()
				for _, i := range order {
					for _, c := range rows[i] {
						res.Samples = append(res.Samples, planSample(ctx, rec, parent, c, c.optimizer(cache), true))
					}
				}
				res.Cache.add(cache)
			})
			return
		}
		for _, i := range order {
			c := rows[i][0]
			own(c.name, func() {
				cache := core.NewSearchCache()
				if name == joint3D {
					res.Samples = append(res.Samples, plan3DSample(ctx, rec, parent, c, cache))
				} else {
					res.Samples = append(res.Samples, planSample(ctx, rec, parent, c, c.optimizer(cache), false))
				}
				res.Cache.add(cache)
			})
		}
	}

	w := startWindow(o.Seconds)
	win := rec.begin("window", spanRef{}, 0, "")
	for n := 0; w.open(); n++ {
		sp := rec.begin("round", win, 0, "")
		t, cpu, before := time.Now(), processCPU(), len(res.Samples)
		round(sp)
		res.Intervals = append(res.Intervals, interval{Plans: okCount(res.Samples[before:]),
			WallS: time.Since(t).Seconds(), CPUS: (processCPU() - cpu).Seconds()})
		sp.end("round", n)
	}
	win.end()
	w.finish(res)
	// The footprint of the largest unit of work: per cell (per round for
	// scale-sweep), the median peak.
	for _, xs := range peaks {
		res.PeakRSSMB = max(res.PeakRSSMB, median(xs))
	}
	res.Spans = rec.all()
	return res, nil
}

func okCount(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.Err == "" {
			n++
		}
	}
	return n
}

// resetPeakRSS restarts the kernel's VmHWM count for this process, so the
// next read is the peak of one unit of work rather than of the process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported kernels keep the process-long peak
}

// planSample times one core plan (estimate first, when asked), recording a
// span around each layer call.
func planSample(ctx context.Context, rec *recorder, parent spanRef, c planCell, o *core.Optimizer, estimate bool) sample {
	s := sample{Cell: c.name, StartNS: time.Now().UnixNano()}
	reqID := fmt.Sprintf("%s#%d", c.name, s.StartNS)
	req := c.request()
	t := time.Now()
	if estimate {
		sp := rec.begin("core.EstimatePlan", parent, 0, reqID)
		est, err := o.EstimatePlan(req)
		s.EstimateNS = int64(time.Since(t))
		sp.end("warm", est.Warm, "work", est.Work)
		if err != nil {
			s.Err = err.Error()
			return s
		}
		s.EstWarm = est.Warm
	}
	sp := rec.begin("core.Plan", parent, 0, reqID)
	strat, err := o.Plan(ctx, req)
	s.LatencyNS = int64(time.Since(t))
	if err != nil {
		sp.end("error", err.Error())
		s.Err = err.Error()
		return s
	}
	sp.end("stats", strat.Stats)
	s.Stats = strat.Stats
	s.Digest = experiments.StrategyDigest(strat)
	return s
}

// plan3DRequest is the joint-3d request: stages auto, global batch 64,
// micro-batch 2, the PrimePar per-stage search.
func plan3DRequest(cfg model.Config) pipeline.Plan3DRequest {
	return pipeline.Plan3DRequest{Model: cfg, System: pipeline.PrimePar, GlobalBatch: 64, Microbatch: 2}
}

func plan3DSample(ctx context.Context, rec *recorder, parent spanRef, c planCell, cache *core.SearchCache) sample {
	s := sample{Cell: c.name, StartNS: time.Now().UnixNano()}
	o := pipeline.NewOptimizer(c.cluster)
	o.Cache = cache
	alpha := c.alpha
	o.Alpha = &alpha
	sp := rec.begin("pipeline.Plan3D", parent, 0, fmt.Sprintf("%s#%d", c.name, s.StartNS))
	t := time.Now()
	p, err := o.Plan3D(ctx, plan3DRequest(c.cfg))
	s.LatencyNS = int64(time.Since(t))
	if err != nil {
		sp.end("error", err.Error())
		s.Err = err.Error()
		return s
	}
	sp.end("stats", p.Stats)
	st := p.Stats
	s.Plan3D = &st
	s.Stats = p.Stats.Search
	s.Digest = p.Digest()
	return s
}

// readGolden loads a checked-in digest file (model@devices → digest).
func readGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// references returns the expected digest per cell: the golden files for
// cold-table2 and joint-3d, and for scale-sweep a fresh-cache plan of every
// distinct request, computed here before the run.
func references(name string, o runOpts, rec *recorder) (map[string]string, error) {
	switch name {
	case coldTable2:
		return readGolden(filepath.Join(o.Golden, "table2_digest.json"))
	case joint3D:
		return readGolden(filepath.Join(o.Golden, "plan3d_digest.json"))
	}
	sp := rec.begin("reference", spanRef{}, 0, "")
	defer sp.end()
	var res runResult
	graphs, err := blocks(sweepModels(o.Quick), rec, sp, &res)
	if err != nil {
		return nil, err
	}
	want := make(map[string]string)
	byReq := make(map[string]string)
	for _, row := range sweepCells(o.Quick, graphs) {
		for _, c := range row {
			key := fmt.Sprintf("%s|%d|%g|%d", c.cfg.Name, c.cluster.NumDevices, c.alpha, c.layers)
			if d, ok := byReq[key]; ok {
				want[c.name] = d
				continue
			}
			s := planSample(context.Background(), rec, sp, c, c.optimizer(core.NewSearchCache()), false)
			if s.Err != "" {
				return nil, fmt.Errorf("reference plan %s: %s", c.name, s.Err)
			}
			byReq[key], want[c.name] = s.Digest, s.Digest
		}
	}
	return want, nil
}

// measureInProcess runs an in-process workload: references, then the
// measured run, in a fresh child process when o.Exe is set.
func measureInProcess(name string, o runOpts, rec *recorder) (*measured, error) {
	want, err := references(name, o, rec)
	if err != nil {
		return nil, err
	}
	m := &measured{}
	if o.Exe == "" {
		m.res, err = runInProcess(name, o, rec)
	} else {
		sp := rec.begin("child", spanRef{}, 0, "")
		m.res, err = runChild(name, o)
		sp.end()
		if err == nil {
			rec.adopt(m.res.Spans, sp, 1)
		}
	}
	if err != nil {
		return nil, err
	}
	m.res.Spans = nil
	m.checks.compare(m.res.Samples, want)
	return m, nil
}

// runChild re-executes this program to run one workload in a fresh process,
// which reports its result as JSON on standard output.
func runChild(name string, o runOpts) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.Seconds)*time.Second+2*time.Minute)
	defer cancel()
	trace := "0"
	if o.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, o.Exe, "-child", name, "-seed", strconv.FormatInt(o.Seed, 10),
		"-seconds", strconv.Itoa(o.Seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", name, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("child %s: %w", name, err)
	}
	return res, nil
}

// childMain is the body of a re-executed child.
func childMain(name string, o runOpts) error {
	var rec *recorder
	if o.Trace {
		rec = &recorder{}
	}
	res, err := runInProcess(name, o, rec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
