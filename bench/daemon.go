package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// Request classes of daemon-restart's mix.
const (
	classWarm     = "warm"
	classCold     = "cold"
	classPipeline = "pipeline"
)

// daemonClients is the closed loop's width: callers that wait for their plan
// (schedulers, CI jobs). Two is an assumption, not a measured load: one per
// CPU of the two-CPU host the benchmark was sized on.
const daemonClients = 2

// coldReplans is how many cold daemon answers are re-planned in-process.
const coldReplans = 3

// wireRequest is the subset of primepard's /v1/plan body the benchmark sends.
type wireRequest struct {
	Model    string        `json:"model"`
	Devices  int           `json:"devices"`
	Batch    int           `json:"batch,omitempty"`
	Pipeline *wirePipeline `json:"pipeline,omitempty"`
}

type wirePipeline struct {
	Stages      string `json:"stages"`
	MicroBatch  int    `json:"micro_batch"`
	GlobalBatch int    `json:"global_batch"`
}

// wireResponse is the subset of the /v1/plan answer the benchmark reads.
type wireResponse struct {
	Digest    string           `json:"digest"`
	Stats     core.SearchStats `json:"stats"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Code      string           `json:"code"`
	Pipeline  *struct {
		Stats pipeline.Plan3DStats `json:"stats"`
	} `json:"pipeline"`
}

// admissionStats is the subset of /v1/stats' admission section the
// benchmark reads.
type admissionStats struct {
	Queued           int64 `json:"queued"`
	Admitted         int64 `json:"admitted"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
	ShedDeadline     int64 `json:"shed_deadline"`
	ShedMemory       int64 `json:"shed_memory"`
}

func (a admissionStats) sheds() int64 {
	return a.ShedQueueFull + a.ShedQueueTimeout + a.ShedDeadline + a.ShedMemory
}

func (a *admissionStats) add(b admissionStats) {
	a.Queued += b.Queued
	a.Admitted += b.Admitted
	a.ShedQueueFull += b.ShedQueueFull
	a.ShedQueueTimeout += b.ShedQueueTimeout
	a.ShedDeadline += b.ShedDeadline
	a.ShedMemory += b.ShedMemory
}

// daemonStats is the subset of /v1/stats the benchmark reads. Summed over
// rounds, the counters add and the cache sizes are the last round's.
type daemonStats struct {
	PlansServed int64          `json:"plans_served"`
	DedupHits   int64          `json:"dedup_hits"`
	WarmServed  int64          `json:"warm_served"`
	CacheNodes  int            `json:"cache_nodes"`
	CacheEdges  int            `json:"cache_edges"`
	CacheTables int            `json:"cache_tables"`
	Admission   admissionStats `json:"admission"`
}

func (d *daemonStats) add(b daemonStats) {
	d.PlansServed += b.PlansServed
	d.DedupHits += b.DedupHits
	d.WarmServed += b.WarmServed
	d.CacheNodes, d.CacheEdges, d.CacheTables = b.CacheNodes, b.CacheEdges, b.CacheTables
	d.Admission.add(b.Admission)
}

// daemonCell is one request kind of the mix; Golden keys its digest.
type daemonCell struct {
	name   string
	class  string
	golden string
	req    wireRequest
}

func pipelineSpec() *wirePipeline {
	return &wirePipeline{Stages: "auto", MicroBatch: 2, GlobalBatch: 64}
}

// daemonCells returns the warm Table 2 cells (3 structures × 8, 16, 32
// devices; 32 left out when quick) and the pipeline cells (the two small
// models at 8 and 16 devices).
func daemonCells(quick bool) (warm, pipe []daemonCell) {
	devs := []int{8, 16, 32}
	if quick {
		devs = devs[:2]
	}
	for _, cfg := range table2Models() {
		for _, d := range devs {
			n := cellName(cfg, d)
			warm = append(warm, daemonCell{n, classWarm, n, wireRequest{Model: cfg.Name, Devices: d}})
		}
	}
	for _, cfg := range smallModels() {
		for _, d := range []int{8, 16} {
			n := cellName(cfg, d)
			pipe = append(pipe, daemonCell{"pipeline:" + n, classPipeline, n,
				wireRequest{Model: cfg.Name, Devices: d, Pipeline: pipelineSpec()}})
		}
	}
	return warm, pipe
}

// daemonProc is one spawned primepard.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	done chan error

	once sync.Once
	took float64
	err  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var healthClient = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// spawnDaemon starts primepard with default flags on cacheDir and returns
// once /v1/healthz answers, with the seconds that took (start-up plus the
// disk cache Load).
func spawnDaemon(bin, cacheDir string) (*daemonProc, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start primepard: %w", err)
	}
	d := &daemonProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	for {
		resp, err := healthClient.Get(d.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start).Seconds(), nil
			}
		}
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("primepard exited before answering /v1/healthz: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			d.stop(syscall.SIGKILL)
			return nil, 0, fmt.Errorf("primepard did not answer /v1/healthz within a minute")
		}
	}
}

// stop signals the daemon and waits for it to exit, returning how long that
// took. SIGTERM drains and saves the cache; SIGKILL does neither. Calls
// after the first return the first call's result.
func (d *daemonProc) stop(sig syscall.Signal) (float64, error) {
	d.once.Do(func() {
		t := time.Now()
		_ = d.cmd.Process.Signal(sig) // fails only if it already exited; Wait reports that
		d.err = <-d.done
		if sig == syscall.SIGKILL {
			d.err = nil
		}
		d.took = time.Since(t).Seconds()
	})
	return d.took, d.err
}

// dieWithParent makes the kernel kill a child if the benchmark dies first,
// so an interrupted run leaves no daemon or child behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func (d *daemonProc) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpuSeconds reads utime+stime of /proc/<pid>/stat (USER_HZ = 100).
func cpuSeconds(pid string) float64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	k, _ := strconv.ParseFloat(f[12], 64)
	return (u + k) / 100
}

// planClient is one keep-alive connection to the daemon.
type planClient struct {
	http *http.Client
}

func newPlanClient() *planClient {
	return &planClient{http: &http.Client{Timeout: 3 * time.Minute, Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
}

func (c *planClient) close() { c.http.CloseIdleConnections() }

// post sends one /v1/plan and fills s from the answer.
func (c *planClient) post(base string, cell daemonCell, req wireRequest, reqID string, s *sample) {
	s.Cell, s.Class, s.Batch = cell.name, cell.class, req.Batch
	body, err := json.Marshal(req)
	if err != nil {
		s.Err = err.Error()
		return
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		s.Err = err.Error()
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", reqID)
	t := time.Now()
	s.StartNS = t.UnixNano()
	resp, err := c.http.Do(hreq)
	if err != nil {
		s.Err = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.LatencyNS = int64(time.Since(t))
	if err != nil {
		s.Err = err.Error()
		return
	}
	var wr wireResponse
	if err := json.Unmarshal(raw, &wr); err != nil {
		s.Err = fmt.Sprintf("decode: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.Err = fmt.Sprintf("HTTP %d %s", resp.StatusCode, wr.Code)
		return
	}
	s.RespBytes, s.ServerMS, s.Digest, s.Stats = len(raw), wr.ElapsedMS, wr.Digest, wr.Stats
	if wr.Pipeline != nil {
		st := wr.Pipeline.Stats
		s.Plan3D = &st
	}
}

func (c *planClient) stats(base string) (daemonStats, error) {
	var st daemonStats
	resp, err := c.http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// One deck holds this many requests per warm cell, per cold kind (small
// model × 8 or 16 devices) and per pipeline cell: 72 warm, 12 cold and 4
// pipeline of 88 with the full cell set, close to an 80/15/5 mix. The mix is
// an assumption: no trace of real planner traffic exists to draw it from.
const (
	warmPerCell = 8
	coldPerKind = 3
	pipePerCell = 1
)

// roundDecks is how many decks one restarted daemon serves. A round is
// fixed work, so the daemon's peak memory at its end does not depend on how
// fast the requests went.
const roundDecks = 2

// dealt is one request of a round.
type dealt struct {
	cell daemonCell
	req  wireRequest
}

// mix is daemon-restart's request deck. Cold entries get a never-repeated
// batch when dealt.
type mix struct {
	deck      []daemonCell
	batchNext int
}

func newMix(warm, pipe []daemonCell, batchBase int) *mix {
	m := &mix{batchNext: batchBase}
	add := func(c daemonCell, n int) {
		for i := 0; i < n; i++ {
			m.deck = append(m.deck, c)
		}
	}
	for _, c := range warm {
		add(c, warmPerCell)
	}
	for _, cfg := range smallModels() {
		for _, d := range []int{8, 16} {
			add(daemonCell{"cold:" + cellName(cfg, d), classCold, "", wireRequest{Model: cfg.Name, Devices: d}}, coldPerKind)
		}
	}
	for _, c := range pipe {
		add(c, pipePerCell)
	}
	return m
}

// round deals roundDecks decks, each in its own seeded order.
func (m *mix) round(rng *rand.Rand) []dealt {
	var out []dealt
	for k := 0; k < roundDecks; k++ {
		for _, i := range rng.Perm(len(m.deck)) {
			c := m.deck[i]
			req := c.req
			if c.class == classCold {
				// Multiples of 16, so every cold request has the same
				// batch-axis split options at 16 devices; only its shapes
				// differ.
				m.batchNext++
				req.Batch = 16 * m.batchNext
			}
			out = append(out, dealt{c, req})
		}
	}
	return out
}

// measureDaemon runs daemon-restart: fill a disk cache through daemon A,
// then, while the window is open, restart daemon B on it and serve one
// round's requests from a closed loop of clients.
func measureDaemon(o runOpts, rec *recorder) (*measured, error) {
	golden2, err := readGolden(filepath.Join(o.Golden, "table2_digest.json"))
	if err != nil {
		return nil, err
	}
	golden3, err := readGolden(filepath.Join(o.Golden, "plan3d_digest.json"))
	if err != nil {
		return nil, err
	}
	work := filepath.Join(o.WorkDir, fmt.Sprintf("daemon-%d", os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cacheDir := filepath.Join(work, "cache")

	m := &measured{res: &runResult{Daemon: &daemonFigures{}}}
	fig := m.res.Daemon
	warm, pipe := daemonCells(o.Quick)
	want := map[string]string{}
	for _, c := range warm {
		want[c.name] = golden2[c.golden]
	}
	for _, c := range pipe {
		want[c.name] = golden3[c.golden]
	}

	// Preparation, untimed: daemon A plans the warm set and saves on SIGTERM.
	prep := rec.begin("daemon.prepare", spanRef{}, 0, "")
	a, _, err := spawnDaemon(o.Primepard, cacheDir)
	if err != nil {
		return nil, err
	}
	cl := newPlanClient()
	var prepSamples []sample
	for i, c := range append(append([]daemonCell(nil), warm...), pipe...) {
		var s sample
		sp := rec.begin("http POST /v1/plan", prep, 0, fmt.Sprintf("prep-%d", i))
		cl.post(a.base, c, c.req, fmt.Sprintf("prep-%d", i), &s)
		sp.end("cell", c.name, "stats", s.Stats)
		prepSamples = append(prepSamples, s)
	}
	cl.close()
	sp := rec.begin("daemon.shutdown", prep, 0, "")
	fig.ShutdownSaveS, err = a.stop(syscall.SIGTERM)
	sp.end()
	prep.end()
	if err != nil {
		return nil, fmt.Errorf("primepard A shutdown: %w", err)
	}
	for _, s := range prepSamples {
		if s.Err != "" {
			m.checks.mismatch("warm-set %s: %s", s.Cell, s.Err)
			continue
		}
		m.checks.digest(s, want)
	}

	// The restart file, loaded and saved in-process.
	if err := timeDiskCache(cacheDir, filepath.Join(work, "resave"), fig, rec); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.Seed))
	mx := newMix(warm, pipe, rng.Intn(1000))
	var peaks []float64
	win := rec.begin("window", spanRef{}, 0, "")
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < time.Duration(o.Seconds)*time.Second; r++ {
		peak, err := m.daemonRound(o, r, cacheDir, mx.round(rng), rec, win)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
	}
	m.res.WindowS = time.Since(start).Seconds()
	win.end()
	m.res.PeakRSSMB = median(peaks)

	m.checkDaemon(want, mx, rec)
	return m, nil
}

// daemonRound restarts daemon B on the filled cache, serves reqs from the
// closed loop, and returns B's VmHWM once they are served. B is killed, not
// stopped: its shutdown save would rewrite the restart file, and daemon A's
// SIGTERM has already timed it.
func (m *measured) daemonRound(o runOpts, r int, cacheDir string, reqs []dealt, rec *recorder, parent spanRef) (float64, error) {
	rsp := rec.begin("round", parent, 0, "")
	defer rsp.end("round", r)
	sp := rec.begin("daemon.spawn", rsp, 0, "")
	b, setup, err := spawnDaemon(o.Primepard, cacheDir)
	sp.end("setup_s", setup)
	if err != nil {
		return 0, err
	}
	defer b.stop(syscall.SIGKILL)
	m.res.SetupS = append(m.res.SetupS, setup)

	var next atomic.Int64
	clients := make([][]sample, daemonClients)
	cpu0, t := cpuSeconds(b.pid()), time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc := newPlanClient()
			defer pc.close()
			csp := rec.begin("client", rsp, i+1, "")
			defer csp.end()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(reqs) {
					return
				}
				d := reqs[n]
				id := fmt.Sprintf("bench-%d-%d-%d", o.Seed, r, n)
				s := sample{Round: r}
				sp := rec.begin("http POST /v1/plan", csp, i+1, id)
				pc.post(b.base, d.cell, d.req, id, &s)
				sp.end("cell", s.Cell, "class", s.Class, "server_ms", s.ServerMS, "err", s.Err, "stats", s.Stats)
				clients[i] = append(clients[i], s)
			}
		}(i)
	}
	wg.Wait()
	iv := interval{WallS: time.Since(t).Seconds(), CPUS: cpuSeconds(b.pid()) - cpu0}
	var round []sample
	for _, ss := range clients {
		round = append(round, ss...)
	}
	sort.Slice(round, func(i, j int) bool { return round[i].StartNS < round[j].StartNS })
	iv.Plans = okCount(round)
	m.res.Samples = append(m.res.Samples, round...)
	m.res.Intervals = append(m.res.Intervals, iv)

	stc := newPlanClient()
	st, err := stc.stats(b.base)
	stc.close()
	if err != nil {
		return 0, fmt.Errorf("read /v1/stats: %w", err)
	}
	m.res.Daemon.Stats.add(st)
	return peakRSSMB(b.pid()), nil
}

// timeDiskCache times core.SearchCache Load of the restart file and Save of
// what it loaded, in this process, then releases the memory.
func timeDiskCache(cacheDir, resaveDir string, fig *daemonFigures, rec *recorder) error {
	if fi, err := os.Stat(filepath.Join(cacheDir, core.CacheFileName)); err == nil {
		fig.FileMB = float64(fi.Size()) / 1e6
	}
	c := core.NewSearchCache()
	sp := rec.begin("core.SearchCache.Load", spanRef{}, 0, "")
	t := time.Now()
	err := c.Load(cacheDir)
	fig.LoadS = time.Since(t).Seconds()
	sp.end("file_mb", fig.FileMB)
	if err != nil {
		return fmt.Errorf("load restart file: %w", err)
	}
	fig.LoadedOverlaps = c.Overlaps().Entries()
	sp = rec.begin("core.SearchCache.Save", spanRef{}, 0, "")
	t = time.Now()
	err = c.Save(resaveDir)
	fig.SaveS = time.Since(t).Seconds()
	sp.end()
	if err != nil {
		return fmt.Errorf("save restart file: %w", err)
	}
	debug.FreeOSMemory()
	return os.RemoveAll(resaveDir)
}

// checkDaemon checks the window's answers: warm and pipeline digests against
// the golden files, zero node work on each cell's first warm repeat after
// every restart, and the first cold answers against in-process re-plans.
func (m *measured) checkDaemon(want map[string]string, mx *mix, rec *recorder) {
	coldReq := map[string]wireRequest{}
	for _, c := range mx.deck {
		if c.class == classCold {
			coldReq[c.name] = c.req
		}
	}
	c := &m.checks
	var cold []sample
	seen := map[string]bool{} // round/cell
	for _, s := range m.res.Samples {
		c.Attempted++
		switch {
		case s.Err != "":
			c.Failed++
			continue
		case s.Class == classCold:
			cold = append(cold, s)
			continue
		}
		c.digest(s, want)
		if key := fmt.Sprintf("%d/%s", s.Round, s.Cell); s.Class == classWarm && !seen[key] {
			seen[key] = true
			if s.Stats.NodeEvals != 0 {
				c.mismatch("%s: first warm repeat after restart %d ran %d node evaluations", s.Cell, s.Round, s.Stats.NodeEvals)
			}
		}
	}
	c.FailedFrac = ratio(float64(c.Failed), float64(c.Attempted))
	sp := rec.begin("check.cold_replans", spanRef{}, 0, "")
	defer sp.end()
	for _, s := range cold[:min(coldReplans, len(cold))] {
		req := coldReq[s.Cell]
		cfg, err := model.ByName(req.Model)
		if err != nil {
			c.mismatch("%s: %v", s.Cell, err)
			continue
		}
		cfg = cfg.WithBatch(s.Batch)
		graphs, err := blocks([]model.Config{cfg}, rec, sp, m.res)
		if err != nil {
			c.mismatch("%s: %v", s.Cell, err)
			continue
		}
		cell := planCell{name: s.Cell, cfg: cfg, graph: graphs[cfg.Name],
			cluster: device.MustCluster(req.Devices, devicesPerNode, device.V100Profile()),
			alpha:   defaultAlpha, layers: cfg.Layers}
		ref := planSample(context.Background(), rec, sp, cell, cell.optimizer(core.NewSearchCache()), false)
		if ref.Err != "" || ref.Digest != s.Digest {
			c.mismatch("%s batch %d: daemon digest %.12s, in-process re-plan %.12s %s",
				s.Cell, s.Batch, s.Digest, ref.Digest, ref.Err)
		}
	}
	if len(cold) == 0 {
		c.mismatch("no cold answer to re-plan")
	}
}
