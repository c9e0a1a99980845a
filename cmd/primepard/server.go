// The planner service proper: request decoding, per-request optimizers over
// one shared SearchCache, admission control (admission.go), singleflight
// dedup of identical in-flight plans, and the JSON endpoints. Kept separate
// from main.go so the whole request lifecycle is exercisable from httptest
// without sockets or signals.
//
// The HTTP surface is versioned under /v1:
//
//	POST /v1/plan        — search (or serve from cache)
//	GET  /v1/healthz     — liveness
//	GET  /v1/stats       — cumulative counters, cache sizes, admission state
//
// Every non-200 answer carries one uniform envelope — {code, message,
// retryable, retry_after_ms, request_id}, an unknown path included (404
// not_found). Every answer carries an
// X-Request-Id header: the caller's own ID when it sent a valid one,
// otherwise one the daemon generated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// PlanRequest is the /v1/plan input. Zero-valued optional fields take the
// model's or the server's defaults.
type PlanRequest struct {
	// Model is a paper model name (OPT-6.7B, Llama2-70B, ...; see
	// `primepar -list`).
	Model string `json:"model"`
	// Devices is the cluster size: a power of two, at most
	// device.MaxDevices (1024). A plain plan takes at most
	// core.MaxPlanDevices (64); a pipeline plan may be larger as long as
	// its widest kept stage is within that limit. The estimate rejects
	// larger sizes, as bad_request, before it enumerates any candidate.
	Devices int `json:"devices"`
	// DevicesPerNode defaults to 4, the paper's testbed shape.
	DevicesPerNode int `json:"devices_per_node,omitempty"`
	// Profile names a machine preset (v100-cluster, a100-cluster,
	// tpuv4-torus, mixed-a100-v100, a100-superpod); empty means
	// v100-cluster, the paper's testbed.
	Profile string `json:"profile,omitempty"`
	// Topology overrides the profile's interconnect shape ("switch" or
	// "torus-2d"). Only meaningful for profiles that parameterize the
	// torus link (tpuv4-torus); empty keeps the profile's own topology.
	Topology string `json:"topology,omitempty"`
	// Links replaces the profile's switch fabric with a custom link
	// hierarchy, innermost tier first. Mutually composable with Profile:
	// compute coefficients come from the profile, links from here.
	Links []LinkSpec `json:"links,omitempty"`
	// Alpha is the Eq. 7 latency↔memory weight; omitted or null defaults
	// to 1e-12. An explicit 0 is honored (pure-latency objective);
	// negative values are rejected.
	Alpha *float64 `json:"alpha,omitempty"`
	// Layers overrides the model's stacked layer count (0 = model default).
	Layers int `json:"layers,omitempty"`
	// Batch overrides the model's micro-batch (0 = model default; negative
	// values are rejected).
	Batch int `json:"batch,omitempty"`
	// Priority orders the admission queue: higher drains first among
	// waiting requests (default 0). It never preempts a running search.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is the client's total patience — queue wait plus search —
	// in milliseconds. A request whose predicted search cost cannot fit in
	// it is shed immediately with 503 deadline_unmeetable. Zero means the
	// server's -timeout; larger values are clamped to its -max-timeout;
	// negative values are rejected.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Pipeline, when present, runs the joint spatial-temporal 3D planner
	// instead of the plain tensor-parallel search: stage boundaries and
	// per-stage strategies are chosen together and the response grows a
	// `pipeline` section (pipeline.go).
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
}

// LinkSpec is one tier of a custom link hierarchy on the wire: an island
// width in devices plus α–β coefficients. Widths must be powers of two ≥ 2;
// the outermost tier may use -1 ("all remaining devices") so the same spec
// scales across device counts.
type LinkSpec struct {
	Name string `json:"name,omitempty"`
	// Devices is the island width this tier joins (2, 4, 8, ... or -1 on
	// the last tier for the remainder).
	Devices int `json:"devices"`
	// Bandwidth in bytes/second.
	Bandwidth float64 `json:"bandwidth"`
	// Latency per message in seconds.
	Latency float64 `json:"latency"`
}

// maxLinkTiers bounds a request's custom hierarchy; device-ID spaces are
// log2(devices) ≤ ~20 bits deep, so more tiers than that is malformed.
const maxLinkTiers = 16

// resolveProfile turns the request's profile/topology/links triple into a
// concrete device.Profile.
func resolveProfile(name, topology string, links []LinkSpec) (device.Profile, *apiError) {
	if name == "" {
		name = "v100-cluster"
	}
	prof, err := device.ProfileByName(name)
	if err != nil {
		return device.Profile{}, badRequest("%v", err)
	}
	if topology != "" {
		topo, err := device.ParseTopology(topology)
		if err != nil {
			return device.Profile{}, badRequest("%v", err)
		}
		if topo == device.Torus2D && prof.TorusBW <= 0 {
			return device.Profile{}, badRequest("profile %q does not parameterize a torus link; use tpuv4-torus or omit topology", prof.Name)
		}
		prof.Topology = topo
	}
	if len(links) > 0 {
		if len(links) > maxLinkTiers {
			return device.Profile{}, badRequest("links has %d tiers, max %d", len(links), maxLinkTiers)
		}
		tiers := make([]device.LinkTier, len(links))
		for i, l := range links {
			t, err := device.LinkTierFromWidth(l.Name, l.Devices, l.Bandwidth, l.Latency)
			if err != nil {
				return device.Profile{}, badRequest("%v", err)
			}
			tiers[i] = t
		}
		prof.Links = tiers
		// A custom hierarchy names a distinct machine: two requests with
		// the same preset but different links must never share cache keys
		// through an equal Profile.Name (the env signature folds the
		// resolved tiers too; the suffix keeps human-readable surfaces —
		// digest listings, plan files — unambiguous as well).
		prof.Name += "+custom-links"
	}
	return prof, nil
}

// PlanNode is one node of the strategy with the cost model's per-layer
// Eq. 7 terms (cost.Intra): the same values as OpReport.Model in primepar's
// PlanReport.
type PlanNode struct {
	Name string `json:"name"`
	// Seq is the partition sequence in the paper's 𝒫 notation.
	Seq       string  `json:"seq"`
	Compute   float64 `json:"compute_s"`
	RingTotal float64 `json:"ring_total_s"`
	AllReduce float64 `json:"all_reduce_s"`
	// MemoryBytes is the node's per-layer Eq. 7 memory term
	// (cost.Intra.MemoryBytes), not a peak. The simulated per-device peak
	// is peak_memory_bytes: in the pipeline section here, and
	// PlanReport.PeakMemoryBytes in primepar.
	MemoryBytes float64 `json:"memory_bytes"`
}

// PlanResponse is the /v1/plan output: the chosen strategy, its cost
// breakdown, the search instrumentation, and the golden-compatible digest.
type PlanResponse struct {
	Model   string `json:"model"`
	Devices int    `json:"devices"`
	Layers  int    `json:"layers"`
	// Profile and Topology echo the machine the plan was computed for
	// (profile name plus "+custom-links" when the request supplied its
	// own hierarchy).
	Profile  string  `json:"profile"`
	Topology string  `json:"topology"`
	Alpha    float64 `json:"alpha"`
	// LayerCost is the cost of the one layer Nodes describes, which every
	// layer runs; TotalCost is exactly Layers × LayerCost.
	LayerCost float64    `json:"layer_cost"`
	TotalCost float64    `json:"total_cost"`
	Digest    string     `json:"digest"`
	Nodes     []PlanNode `json:"nodes,omitempty"`
	// Pipeline carries the joint 3D plan when the request asked for one; the
	// flat Nodes/LayerCost/TotalCost fields stay zero in that case (the
	// per-stage strategies live inside the section) and Digest fingerprints
	// the whole joint plan instead of a single strategy.
	Pipeline  *PipelinePlan    `json:"pipeline,omitempty"`
	Stats     core.SearchStats `json:"stats"`
	ElapsedMS float64          `json:"elapsed_ms"`
	// Deduped marks a response served by waiting on an identical in-flight
	// request instead of searching.
	Deduped bool `json:"deduped,omitempty"`
}

// apiError is the service's uniform failure: an HTTP status, a stable
// machine-readable code, and (for shed requests) a Retry-After hint.
type apiError struct {
	status     int
	code       string
	message    string
	retryable  bool
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.message }

// errorEnvelope is the JSON body of every non-200 answer.
type errorEnvelope struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Retryable    bool   `json:"retryable"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// RequestID echoes the answer's X-Request-Id header.
	RequestID string `json:"request_id,omitempty"`
}

// writeError renders err as the uniform envelope (plus a Retry-After header
// when the error carries a hint), stamped with the request's ID.
func writeError(w http.ResponseWriter, err *apiError) {
	if err.retryAfter > 0 {
		secs := int64((err.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, err.status, errorEnvelope{
		Code:         err.code,
		Message:      err.message,
		Retryable:    err.retryable,
		RetryAfterMS: err.retryAfter.Milliseconds(),
		RequestID:    w.Header().Get(requestIDHeader),
	})
}

// requestIDHeader carries a request's ID in both directions.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds a caller-supplied request ID, in bytes.
const maxRequestIDLen = 128

// requestID returns the caller's ID when it is 1–128 bytes of printable
// ASCII, and otherwise a fresh one: 16 random bytes in hex. A hostile or
// oversized header is replaced, never echoed into headers or JSON. The ID
// only needs to be unique, not unguessable, so math/rand suffices.
func requestID(sent string) string {
	ok := sent != "" && len(sent) <= maxRequestIDLen
	for i := 0; ok && i < len(sent); i++ {
		ok = sent[i] >= 0x20 && sent[i] <= 0x7e
	}
	if ok {
		return sent
	}
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_request",
		message: fmt.Sprintf(format, args...)}
}

// server is the planner daemon: one shared search cache, one singleflight
// group, one admission gate, and monotonically growing counters for /stats.
// Service counters are atomics: they are bumped from concurrent request
// goroutines and read lock-free by the stats handler. The search totals are
// one core.SearchStats under a mutex.
type server struct {
	cache          *core.SearchCache
	cacheDir       string // "" = no persistence
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	start          time.Time
	flight         flightGroup
	adm            *admission

	requests      atomic.Int64
	plansServed   atomic.Int64
	planErrors    atomic.Int64
	dedupHits     atomic.Int64
	cancellations atomic.Int64
	warmServed    atomic.Int64
	saves         atomic.Int64
	saveErrors    atomic.Int64
	lastSaveUnix  atomic.Int64
	// searchTotal sums the search stats of every served plan.
	searchMu    sync.Mutex
	searchTotal core.SearchStats
}

func newServer(cache *core.SearchCache, cacheDir string, defaultTimeout, maxTimeout time.Duration, adm admissionConfig) *server {
	return &server{
		cache:          cache,
		cacheDir:       cacheDir,
		defaultTimeout: defaultTimeout,
		maxTimeout:     maxTimeout,
		start:          time.Now(),
		adm:            newAdmission(adm),
	}
}

// handler builds the daemon's mux with request IDs and panic containment:
// every answer carries the request's X-Request-Id (requestID), and a panic
// escaping a request (e.g. a core.TaskPanic re-thrown from a worker pool)
// becomes a 500 for that request instead of killing the process. Any path
// the mux does not route gets a 404 not_found envelope.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &apiError{status: http.StatusNotFound, code: "not_found",
			message: fmt.Sprintf("no endpoint at %s", r.URL.Path)})
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(requestIDHeader, requestID(r.Header.Get(requestIDHeader)))
		defer func() {
			if rec := recover(); rec != nil {
				s.planErrors.Add(1)
				writeError(w, &apiError{status: http.StatusInternalServerError,
					code: "internal", message: fmt.Sprintf("internal panic: %v", rec)})
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// admissionStats is the admission section of /v1/stats.
type admissionStats struct {
	MaxConcurrent    int                `json:"max_concurrent"`
	MaxQueue         int                `json:"max_queue"`
	Running          int                `json:"running"`
	QueueDepth       int                `json:"queue_depth"`
	Queued           int64              `json:"queued"`
	Admitted         int64              `json:"admitted"`
	ShedQueueFull    int64              `json:"shed_queue_full"`
	ShedQueueTimeout int64              `json:"shed_queue_timeout"`
	ShedDeadline     int64              `json:"shed_deadline"`
	ShedMemory       int64              `json:"shed_memory"`
	QueueWaitMS      queueWaitHistogram `json:"queue_wait_ms"`
}

// statsResponse is the /v1/stats payload: cumulative service counters plus
// the live cache sizes and admission state, expvar-style (flat JSON,
// monotone counters).
type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	PlansServed   int64   `json:"plans_served"`
	PlanErrors    int64   `json:"plan_errors"`
	DedupHits     int64   `json:"dedup_hits"`
	Cancellations int64   `json:"cancellations"`
	WarmServed    int64   `json:"warm_served"`
	// SearchStats totals the search stats of every served plan
	// (SearchStats.Add); its keys sit flat beside the service counters.
	core.SearchStats
	CacheNodes      int            `json:"cache_nodes"`
	CacheEdges      int            `json:"cache_edges"`
	CacheTables     int            `json:"cache_tables"`
	CachePlans      int            `json:"cache_plans"`
	CacheSaves      int64          `json:"cache_saves"`
	CacheSaveErrors int64          `json:"cache_save_errors"`
	LastSaveUnix    int64          `json:"last_save_unix,omitempty"`
	Admission       admissionStats `json:"admission"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	nodes, edges := s.cache.Sizes()
	running, depth := s.adm.depth()
	s.searchMu.Lock()
	search := s.searchTotal
	s.searchMu.Unlock()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		PlansServed:     s.plansServed.Load(),
		PlanErrors:      s.planErrors.Load(),
		DedupHits:       s.dedupHits.Load(),
		Cancellations:   s.cancellations.Load(),
		WarmServed:      s.warmServed.Load(),
		SearchStats:     search,
		CacheNodes:      nodes,
		CacheEdges:      edges,
		CacheTables:     s.cache.TableEntries(),
		CachePlans:      s.cache.PlanEntries(),
		CacheSaves:      s.saves.Load(),
		CacheSaveErrors: s.saveErrors.Load(),
		LastSaveUnix:    s.lastSaveUnix.Load(),
		Admission: admissionStats{
			MaxConcurrent:    s.adm.cfg.MaxConcurrent,
			MaxQueue:         s.adm.cfg.MaxQueue,
			Running:          running,
			QueueDepth:       depth,
			Queued:           s.adm.queued.Load(),
			Admitted:         s.adm.admitted.Load(),
			ShedQueueFull:    s.adm.shedQueueFull.Load(),
			ShedQueueTimeout: s.adm.shedQueueTimeout.Load(),
			ShedDeadline:     s.adm.shedDeadline.Load(),
			ShedMemory:       s.adm.shedMemory.Load(),
			QueueWaitMS:      s.adm.waits.snapshot(),
		},
	})
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, &apiError{status: http.StatusMethodNotAllowed,
			code: "method_not_allowed", message: "POST a PlanRequest JSON body"})
		return
	}
	var req PlanRequest
	if aerr := decodeStrict(w, r, &req); aerr != nil {
		s.planErrors.Add(1)
		writeError(w, aerr)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMS))
	defer cancel()
	ctx = context.WithValue(ctx, priorityCtxKey{}, req.Priority)

	resp, aerr := s.plan(ctx, &req)
	if aerr != nil {
		s.planErrors.Add(1)
		writeError(w, aerr)
		return
	}
	s.plansServed.Add(1)
	s.countSearch(resp.Stats)
	writeJSON(w, http.StatusOK, resp)
}

// decodeStrict decodes a request body of at most 1 MiB into v. Malformed
// JSON, unknown fields and anything but whitespace after the one JSON value
// are bad requests: a misspelled or retired field, or a second object, fails
// loudly instead of silently planning with a default.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request: %v", err)
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return badRequest("bad request: data after the request object")
	}
	return nil
}

// countSearch adds a served plan's search stats to the /v1/stats cache-tier
// and work counters.
func (s *server) countSearch(st core.SearchStats) {
	s.searchMu.Lock()
	s.searchTotal.Add(st)
	s.searchMu.Unlock()
}

// deadline resolves a request's deadline_ms: the server default when unset,
// clamped to -max-timeout. The clamp comes before the conversion, so a huge
// deadline_ms cannot overflow time.Duration into a negative timeout.
// preparePlan rejects negative values.
func (s *server) deadline(ms int) time.Duration {
	if ms <= 0 {
		return min(s.defaultTimeout, s.maxTimeout)
	}
	if int64(ms) >= int64(s.maxTimeout/time.Millisecond) {
		return s.maxTimeout
	}
	return time.Duration(ms) * time.Millisecond
}

// asAPIError maps any failure from the plan pipeline onto the uniform
// envelope: admission sheds pass through, context ends become 499 (client
// closed first) or 504 (the server's deadline fired mid-search), everything
// else is a 500.
func (s *server) asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, context.Canceled):
		s.cancellations.Add(1)
		return &apiError{status: 499, code: "client_closed", message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		s.cancellations.Add(1)
		return &apiError{status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			retryable: true, message: err.Error()}
	}
	return &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
}

// planJob is one fully resolved plan unit: the normalized request (defaults
// applied), its model config, a fresh optimizer wired to the shared cache,
// the core request, the cache-state estimate and the singleflight key. Built
// by preparePlan; consumed by plan. A request with a `pipeline` object
// additionally carries the joint planner and its resolved Plan3DRequest;
// search dispatches on pipe != nil.
type planJob struct {
	req  PlanRequest
	cfg  model.Config
	opt  *core.Optimizer
	core core.PlanRequest
	est  core.SearchEstimate
	key  string
	popt *pipeline.Optimizer
	pipe *pipeline.Plan3DRequest
}

// preparePlan validates req, applies the server defaults and predicts the
// request's cost against the shared cache. It does not search.
func (s *server) preparePlan(req *PlanRequest) (*planJob, *apiError) {
	cfg, err := model.ByName(req.Model)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if req.Batch < 0 {
		return nil, badRequest("batch must be ≥ 0, got %d", req.Batch)
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest("deadline_ms must be ≥ 0, got %d", req.DeadlineMS)
	}
	if req.Batch > 0 {
		cfg = cfg.WithBatch(req.Batch)
	}
	perNode := req.DevicesPerNode
	if perNode == 0 {
		perNode = 4
	}
	prof, aerr := resolveProfile(req.Profile, req.Topology, req.Links)
	if aerr != nil {
		return nil, aerr
	}
	cl, err := device.NewCluster(req.Devices, perNode, prof)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// Presence-based α: nil means "server default", an explicit 0 is the
	// legitimate pure-latency objective (a seeded fuzz-corpus case) and
	// must NOT be coerced away.
	alpha := 1e-12
	if req.Alpha != nil {
		alpha = *req.Alpha
	}
	if alpha < 0 {
		return nil, badRequest("alpha must be ≥ 0, got %v", alpha)
	}
	layers := req.Layers
	if layers == 0 {
		layers = cfg.Layers
	}
	if layers < 1 {
		return nil, badRequest("layers must be ≥ 1, got %d", layers)
	}

	// A fresh optimizer per request; the shared cache is what makes repeats
	// and warm restarts ~free.
	m := cost.NewModel(cl)
	m.Alpha = alpha
	o := core.NewOptimizer(m)
	o.Cache = s.cache

	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	planReq := core.PlanRequest{Graph: g, Layers: layers}

	var (
		est  core.SearchEstimate
		popt *pipeline.Optimizer
		pipe *pipeline.Plan3DRequest
	)
	tag := fmt.Sprintf("%s|layers=%d|batch=%d", cfg.Name, layers, cfg.Batch)
	if req.Pipeline != nil {
		if aerr := req.Pipeline.validate(); aerr != nil {
			return nil, aerr
		}
		popt = pipeline.NewOptimizer(cl)
		popt.Cache = s.cache
		popt.Alpha = &alpha
		mcfg := cfg
		mcfg.Layers = layers
		pr := pipeline.Plan3DRequest{
			Model:        mcfg,
			System:       req.Pipeline.system(),
			GlobalBatch:  req.Pipeline.GlobalBatch,
			Microbatch:   req.Pipeline.MicroBatch,
			Stages:       req.Pipeline.Stages.N,
			DataParallel: req.Pipeline.DataParallel,
		}
		pipe = &pr
		est, err = popt.EstimatePlan3D(pr)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		tag += "|pipe=" + req.Pipeline.key()
	} else {
		est, err = o.EstimatePlan(planReq)
		if err != nil {
			return nil, badRequest("%v", err)
		}
	}

	normalized := *req
	normalized.DevicesPerNode = perNode
	normalized.Profile = prof.Name
	normalized.Topology = prof.Topology.String()
	normalized.Alpha = &alpha
	normalized.Layers = layers
	normalized.Batch = cfg.Batch
	return &planJob{
		req:  normalized,
		cfg:  cfg,
		opt:  o,
		core: planReq,
		est:  est,
		key:  o.RequestKey(tag),
		popt: popt,
		pipe: pipe,
	}, nil
}

// plan validates the request, predicts its cost against the shared cache,
// and runs (or joins) the search under admission control. Admission happens
// INSIDE the singleflight closure: concurrent duplicates share the leader's
// queue slot instead of each holding one.
func (s *server) plan(ctx context.Context, req *PlanRequest) (*PlanResponse, *apiError) {
	job, aerr := s.preparePlan(req)
	if aerr != nil {
		return nil, aerr
	}
	resp, err, shared := s.flight.Do(ctx, job.key, func() (*PlanResponse, error) {
		release, aerr := s.adm.admit(ctx, job.est.Warm, s.adm.pred.predict(job.est.Work), ctxDeadline(ctx))
		if aerr != nil {
			return nil, aerr
		}
		if release == nil {
			return nil, ctx.Err() // admission wait ended by the request context
		}
		defer release()
		return s.search(ctx, job)
	})
	if shared {
		s.dedupHits.Add(1)
	}
	if err != nil {
		return nil, s.asAPIError(err)
	}
	if job.est.Warm {
		s.warmServed.Add(1)
	}
	if shared {
		// Shallow-copy so the flag never races with another waiter's copy.
		dup := *resp
		dup.Deduped = true
		resp = &dup
	}
	return resp, nil
}

func ctxDeadline(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Time{}
}

// search runs one search end to end, teaches the cost predictor, and shapes
// the response. Pipeline jobs run the joint 3D planner; plain jobs run the
// tensor-parallel search.
func (s *server) search(ctx context.Context, job *planJob) (*PlanResponse, error) {
	req, cfg, o, planReq, est := &job.req, job.cfg, job.opt, job.core, job.est
	start := time.Now()
	if job.pipe != nil {
		p3, err := job.popt.Plan3D(ctx, *job.pipe)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if !est.Warm {
			s.adm.pred.observe(est.Work, elapsed)
		}
		return &PlanResponse{
			Model:     cfg.Name,
			Devices:   req.Devices,
			Layers:    job.pipe.Model.Layers,
			Profile:   req.Profile,
			Topology:  req.Topology,
			Alpha:     *req.Alpha,
			Digest:    p3.Digest(),
			Pipeline:  pipelinePlanOf(*req.Pipeline, p3, planReq.Graph),
			Stats:     p3.Stats.Search,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		}, nil
	}
	strat, err := o.Plan(ctx, planReq)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if !est.Warm {
		s.adm.pred.observe(est.Work, elapsed)
	}

	g := planReq.Graph
	nodes := make([]PlanNode, len(g.Nodes))
	for i, op := range g.Nodes {
		nodes[i] = PlanNode{
			Name:        op.Name,
			Seq:         strat.Seqs[i].Format(op.AxisNames()),
			Compute:     strat.Intra[i].Compute,
			RingTotal:   strat.Intra[i].RingTotal,
			AllReduce:   strat.Intra[i].AllReduce,
			MemoryBytes: strat.Intra[i].MemoryBytes,
		}
	}
	return &PlanResponse{
		Model:     cfg.Name,
		Devices:   req.Devices,
		Layers:    planReq.Layers,
		Profile:   req.Profile,
		Topology:  req.Topology,
		Alpha:     o.Cost.Alpha,
		LayerCost: strat.LayerCost,
		TotalCost: strat.TotalCost,
		Digest:    experiments.StrategyDigest(strat),
		Nodes:     nodes,
		Stats:     strat.Stats,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}, nil
}

// saveCache persists the shared cache (periodic ticks and shutdown). Errors
// are counted, not fatal: the service keeps serving from memory.
func (s *server) saveCache() error {
	if s.cacheDir == "" {
		return nil
	}
	s.saves.Add(1)
	if err := s.cache.Save(s.cacheDir); err != nil {
		s.saveErrors.Add(1)
		return err
	}
	s.lastSaveUnix.Store(time.Now().Unix())
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// flightGroup deduplicates identical in-flight plan requests, keyed by
// core.(*Optimizer).RequestKey — the same byte encoding family the
// cross-call cache uses, so "identical" means bit-identical searches. The
// leader computes under its own context; followers wait under theirs. A
// follower whose leader was cancelled (but who is itself still live) retries
// as the new leader rather than inheriting the cancellation. Because
// admission runs inside the leader's closure, all waiters of one key consume
// ONE queue slot between them.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	resp *PlanResponse
	err  error
}

// Do runs fn once per key among concurrent callers. The bool reports whether
// this caller's answer came from another caller's run.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (*PlanResponse, error)) (*PlanResponse, error, bool) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flightCall)
		}
		if c, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
				if c.err != nil && isCancellation(c.err) && ctx.Err() == nil {
					continue // the leader died of cancellation, not us: retry
				}
				return c.resp, c.err, true
			case <-ctx.Done():
				return nil, ctx.Err(), false
			}
		}
		c := &flightCall{done: make(chan struct{})}
		g.m[key] = c
		g.mu.Unlock()

		c.resp, c.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		return c.resp, c.err, false
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
