package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/report"
	"repro/primepar"
)

// noAdmission disables the gate: the pre-admission request lifecycle
// (timeouts, cancellation, dedup) is tested pass-through, and the admission
// policies get their own dedicated tests.
var noAdmission = admissionConfig{}

// newTestServer builds a server over a private cache (never the process-wide
// default, so tests stay independent).
func newTestServer(t *testing.T, cacheDir string, adm admissionConfig) *server {
	t.Helper()
	return newServer(core.NewSearchCache(), cacheDir, time.Minute, 5*time.Minute, adm)
}

// fptr builds the presence-carrying α pointer requests use on the wire.
func fptr(v float64) *float64 { return &v }

// planOutcome is one /v1/plan exchange: either a decoded PlanResponse or the
// error envelope, plus the raw status and headers.
type planOutcome struct {
	resp   *PlanResponse
	status int
	env    errorEnvelope
	header http.Header
}

func postPlan(t *testing.T, ts *httptest.Server, req PlanRequest) planOutcome {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	out := planOutcome{status: httpResp.StatusCode, header: httpResp.Header}
	if httpResp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&out.env); err != nil {
			t.Fatalf("non-200 body is not an error envelope: %v", err)
		}
		return out
	}
	out.resp = &PlanResponse{}
	if err := json.NewDecoder(httpResp.Body).Decode(out.resp); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanColdThenWarm is the service's core contract: the first request
// searches, an identical repeat is served entirely from the shared cache
// (zero node/edge/DP work, one plan hit and no node pass) with an identical
// digest.
func TestPlanColdThenWarm(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := PlanRequest{Model: "OPT-6.7B", Devices: 4}
	cold := postPlan(t, ts, req)
	if cold.resp == nil {
		t.Fatalf("cold plan failed: %d %s", cold.status, cold.env.Message)
	}
	if cold.resp.Stats.NodeEvals == 0 || cold.resp.Stats.EdgeMatsBuilt == 0 {
		t.Fatalf("cold plan reports no work: %+v", cold.resp.Stats)
	}
	if cold.resp.Digest == "" || len(cold.resp.Nodes) == 0 || cold.resp.TotalCost <= 0 {
		t.Fatalf("cold plan response incomplete: digest=%q nodes=%d total=%v",
			cold.resp.Digest, len(cold.resp.Nodes), cold.resp.TotalCost)
	}

	warm := postPlan(t, ts, req)
	if warm.resp == nil {
		t.Fatalf("warm plan failed: %d", warm.status)
	}
	if warm.resp.Stats.NodeEvals != 0 || warm.resp.Stats.EdgeMatsBuilt != 0 {
		t.Fatalf("warm plan recomputed: %d node evals, %d edge builds",
			warm.resp.Stats.NodeEvals, warm.resp.Stats.EdgeMatsBuilt)
	}
	if warm.resp.Stats.CrossCallNodeHits != 0 || warm.resp.Stats.CrossCallPlanHits != 1 ||
		warm.resp.Stats.EntriesScanned != 0 {
		t.Fatalf("warm plan not served from the plan tier alone: %+v", warm.resp.Stats)
	}
	if warm.resp.Digest != cold.resp.Digest || warm.resp.TotalCost != cold.resp.TotalCost {
		t.Fatalf("warm plan diverged: digest %s vs %s, total %v vs %v",
			warm.resp.Digest, cold.resp.Digest, warm.resp.TotalCost, cold.resp.TotalCost)
	}

	// /v1/stats reflects both requests and the warm hits.
	st := getStats(t, ts)
	if st.PlansServed != 2 || st.CrossCallNodeHits != 0 || st.CacheNodes == 0 || st.CacheEdges == 0 ||
		st.CachePlans != 1 || st.CrossCallPlanHits != 1 {
		t.Fatalf("stats inconsistent after cold+warm: %+v", st)
	}
	if st.WarmServed != 1 {
		t.Fatalf("warm_served = %d, want 1", st.WarmServed)
	}

	// /v1/healthz answers while all of the above is in flight-able state.
	h, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", h.StatusCode)
	}
}

// TestPlanDeltaFrontier: three /v1/plan calls on one server — a base, an α
// shift and a layer change — share search work through the server's cache.
// The α plan evaluates no node and builds no edge matrix but runs its DP;
// the layer plan is a plan hit, since one periodic layer answers every layer
// count, and scans nothing. Each answer matches a cold plan of the same request on a fresh
// server, and replaying the three is three plan hits that scan nothing.
func TestPlanDeltaFrontier(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	reqs := []PlanRequest{
		{Model: "OPT-6.7B", Devices: 4, Layers: 2},
		{Model: "OPT-6.7B", Devices: 4, Layers: 2, Alpha: fptr(1e-10)},
		{Model: "OPT-6.7B", Devices: 4, Layers: 4},
	}
	got := make([]*PlanResponse, len(reqs))
	for i, req := range reqs {
		out := postPlan(t, ts, req)
		if out.resp == nil {
			t.Fatalf("plan %d failed: %d %s", i, out.status, out.env.Message)
		}
		got[i] = out.resp
	}
	if got[0].Stats.NodeEvals == 0 {
		t.Fatalf("base plan did no node work: %+v", got[0].Stats)
	}
	// The α plan is a layer hit: it reuses every node entry and edge
	// matrix, and only the DP re-runs.
	if st := got[1].Stats; st.NodeEvals != 0 || st.CrossCallNodeHits == 0 || st.EdgeMatsBuilt != 0 ||
		st.SegTablesBuilt == 0 {
		t.Errorf("α plan frontier wrong: %+v", st)
	}
	// The layer plan is served from the plan tier: the node pass only.
	if st := got[2].Stats; st.NodeEvals != 0 || st.SegTablesBuilt != 0 || st.CrossCallPlanHits != 1 ||
		st.EdgeMatsBuilt != 0 || st.CrossCallEdgeHits != 0 || st.EntriesScanned != 0 {
		t.Errorf("layer plan frontier wrong: %+v", st)
	}

	cold := newTestServer(t, "", noAdmission)
	tsCold := httptest.NewServer(cold.handler())
	defer tsCold.Close()
	for i, req := range reqs {
		c := postPlan(t, tsCold, req)
		if c.resp == nil {
			t.Fatalf("cold plan %d failed: %d %s", i, c.status, c.env.Message)
		}
		if c.resp.Digest != got[i].Digest || c.resp.TotalCost != got[i].TotalCost {
			t.Errorf("plan %d: digest %s total %v, cold plan digest %s total %v",
				i, got[i].Digest, got[i].TotalCost, c.resp.Digest, c.resp.TotalCost)
		}
	}

	for i, req := range reqs {
		again := postPlan(t, ts, req)
		if again.resp == nil {
			t.Fatalf("replay %d failed: %d %s", i, again.status, again.env.Message)
		}
		if st := again.resp.Stats; st.CrossCallPlanHits != 1 || st.EntriesScanned != 0 ||
			st.NodeEvals != 0 || st.EdgeMatsBuilt != 0 || st.SegTablesBuilt != 0 {
			t.Errorf("replay %d missed the plan tier: %+v", i, st)
		}
		if again.resp.Digest != got[i].Digest {
			t.Errorf("replay %d digest %s, first answer %s", i, again.resp.Digest, got[i].Digest)
		}
	}
}

// TestUnknownPathNotFound: a path the daemon does not serve — the
// unversioned pre-v1 paths and the deleted /v1/plan/sweep included —
// answers 404 with the uniform not_found envelope stamped with the request
// ID.
func TestUnknownPathNotFound(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/plan"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/v1/nope"},
		{http.MethodPost, "/v1/plan/sweep"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(`{"model":"OPT-6.7B","devices":4}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: body is not an envelope: %v", c.method, c.path, err)
		}
		id := resp.Header.Get(requestIDHeader)
		if resp.StatusCode != http.StatusNotFound || env.Code != "not_found" || env.Retryable ||
			env.Message == "" || id == "" || env.RequestID != id {
			t.Errorf("%s %s: %d %+v (X-Request-Id %q), want a 404 not_found envelope",
				c.method, c.path, resp.StatusCode, env, id)
		}
	}
}

// TestDecodeStrictTrailingData: the request body is exactly one JSON value.
// Trailing whitespace is accepted; a second value or any other trailing
// bytes are a bad_request, never a silently ignored suffix.
func TestDecodeStrictTrailingData(t *testing.T) {
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"one object", `{"model":"OPT-6.7B","devices":8}`, true},
		{"trailing whitespace", "{\"model\":\"OPT-6.7B\",\"devices\":8} \n\t\r\n", true},
		{"second object and garbage", `{"model":"OPT-6.7B","devices":8}{"devices":64} garbage`, false},
		{"second object", `{"model":"OPT-6.7B","devices":8} {"devices":64}`, false},
		{"trailing garbage", `{"model":"OPT-6.7B","devices":8}x`, false},
		{"trailing brace", `{"model":"OPT-6.7B","devices":8}}`, false},
		{"trailing number", `{"model":"OPT-6.7B","devices":8} 64`, false},
	} {
		var req PlanRequest
		w, r := postBody("/v1/plan", []byte(c.body))
		aerr := decodeStrict(w, r, &req)
		if c.ok {
			if aerr != nil || req.Devices != 8 {
				t.Errorf("%s: got %+v, %v; want 8 devices decoded", c.name, req, aerr)
			}
			continue
		}
		if aerr == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		checkBadRequest(t, aerr)
	}
}

func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	httpResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPlanTimeoutThenRecover pins the acceptance criterion: a cold exact
// request with a short deadline is cancelled mid-search (504 once the
// search overruns it), and the shared cache stays fully usable for the next
// request. Uncancelled, the cold OPT-175B@32 search runs ~0.25–0.3 s on a
// 2-CPU host, so a 50 ms deadline lands mid-search, and answering within
// 1 s shows the deadline cut it short. Admission is disabled so the short
// deadline reaches the search instead of being shed up front.
func TestPlanTimeoutThenRecover(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	start := time.Now()
	out := postPlan(t, ts, PlanRequest{
		Model: "OPT-175B", Devices: 32, DeadlineMS: 50,
	})
	elapsed := time.Since(start)
	if out.resp != nil {
		t.Fatalf("expected a timeout, got a plan (digest %s)", out.resp.Digest)
	}
	if out.status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", out.status, out.env.Message)
	}
	if out.env.Code != "deadline_exceeded" || !out.env.Retryable {
		t.Fatalf("envelope = %+v, want retryable deadline_exceeded", out.env)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled request took %s, not prompt", elapsed)
	}

	// The same server must still serve a normal request from a clean cache.
	ok := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4})
	if ok.resp == nil {
		t.Fatal("plan after a cancelled request failed")
	}
	if ok.resp.Stats.NodeEvals == 0 {
		t.Fatalf("post-cancel plan claims to be warm; the cancelled request must not publish partial entries: %+v", ok.resp.Stats)
	}
}

// TestPlanCancelledContext drives s.plan directly with an already-cancelled
// context: it must return the client_closed mapping without publishing
// anything.
func TestPlanCancelledContext(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, aerr := s.plan(ctx, &PlanRequest{Model: "OPT-175B", Devices: 8})
	if aerr == nil || aerr.status != 499 || aerr.code != "client_closed" {
		t.Fatalf("aerr = %+v, want 499 client_closed", aerr)
	}
	if n, e := s.cache.Sizes(); n != 0 || e != 0 || s.cache.PlanEntries() != 0 {
		t.Fatalf("cancelled plan published %d nodes, %d edges, %d plans", n, e, s.cache.PlanEntries())
	}
	// And the cache is usable afterwards.
	resp, aerr := s.plan(context.Background(), &PlanRequest{Model: "OPT-6.7B", Devices: 4})
	if aerr != nil || resp == nil {
		t.Fatalf("plan after cancellation: %+v", aerr)
	}
}

// TestPlanValidation covers the 4xx paths and the error envelope shape:
// exactly code, message and retryable, with no other key.
func TestPlanValidation(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"warp":9}`, http.StatusBadRequest},
		{"unknown model", http.MethodPost, `{"model":"GPT-9","devices":4}`, http.StatusBadRequest},
		{"bad devices", http.MethodPost, `{"model":"OPT-6.7B","devices":3}`, http.StatusBadRequest},
		{"bad layers", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"layers":-2}`, http.StatusBadRequest},
		{"negative batch", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"batch":-1}`, http.StatusBadRequest},
		{"negative deadline", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"deadline_ms":-1}`, http.StatusBadRequest},
		// The approximate search was deleted: its knobs are unknown fields.
		{"beam is unknown", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"beam":8}`, http.StatusBadRequest},
		{"budget_ms is unknown", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"budget_ms":50}`, http.StatusBadRequest},
		{"timeout_ms is unknown", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"timeout_ms":1000}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+"/v1/plan", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
		code, _ := env["code"].(string)
		msg, _ := env["message"].(string)
		id, _ := env["request_id"].(string)
		if _, ok := env["retryable"]; code == "" || msg == "" || !ok || id == "" || len(env) != 4 {
			t.Errorf("%s: malformed envelope %v", c.name, env)
		}
	}
}

// TestPlanTooManyDevicesRejected: a device count above device.MaxDevices,
// or a searched width above the exact-search limit core.MaxPlanDevices,
// answers bad_request before any candidate is enumerated, on plain and
// pipeline requests. A pipeline's stages are at most half the machine, so its cases double the device count. At 2048
// devices the estimate alone used to exhaust memory, and at 1024 it takes
// seconds, so each answer must come back quickly.
func TestPlanTooManyDevicesRejected(t *testing.T) {
	for _, tooMany := range []int{2 * core.MaxPlanDevices, device.MaxDevices, 2 * device.MaxDevices} {
		checkTooManyDevicesRejected(t, tooMany)
	}
}

func checkTooManyDevicesRejected(t *testing.T, tooMany int) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	pipe := &PipelineSpec{MicroBatch: 2, GlobalBatch: 64}
	start := time.Now()
	for _, req := range []PlanRequest{
		{Model: "OPT-6.7B", Devices: tooMany},
		{Model: "OPT-6.7B", Devices: 2 * tooMany, Pipeline: pipe},
	} {
		out := postPlan(t, ts, req)
		if out.status != http.StatusBadRequest || out.env.Code != "bad_request" {
			t.Errorf("%d devices, pipeline=%v: got %d %q, want 400 bad_request", tooMany, req.Pipeline != nil, out.status, out.env.Code)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rejecting %d devices took %v", tooMany, d)
	}
}

// TestPlanPipelineStageWidthLimit: the exact search's device limit bounds
// the widest stage a pipeline plan searches, not the machine. A pipeline on
// twice core.MaxPlanDevices (auto depth, stages of at most that) or on
// four times it with the depth pinned to 4 is accepted; the same machine
// with auto depth, or depth 2 and data_parallel 1, is not. preparePlan
// only validates and estimates, so no search runs.
func TestPlanPipelineStageWidthLimit(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	pipe := func(stages, d int) *PipelineSpec {
		return &PipelineSpec{Stages: StagesSpec{N: stages}, DataParallel: d, MicroBatch: 2, GlobalBatch: 64}
	}
	for _, tc := range []struct {
		devices int
		spec    *PipelineSpec
		ok      bool
	}{
		{2 * core.MaxPlanDevices, pipe(0, 0), true},
		{4 * core.MaxPlanDevices, pipe(4, 0), true},
		{4 * core.MaxPlanDevices, pipe(2, 2), true},
		{4 * core.MaxPlanDevices, pipe(0, 0), false},
		{4 * core.MaxPlanDevices, pipe(2, 1), false},
	} {
		_, aerr := s.preparePlan(&PlanRequest{Model: "OPT-6.7B", Devices: tc.devices, Pipeline: tc.spec})
		if ok := aerr == nil; ok != tc.ok {
			t.Errorf("%d devices, stages %d, data_parallel %d: accepted = %v (%v), want %v",
				tc.devices, tc.spec.Stages.N, tc.spec.DataParallel, ok, aerr, tc.ok)
		}
	}
}

// TestFlightGroupDedup exercises the singleflight directly: a follower that
// arrives while the leader is in flight gets the leader's response without a
// second computation.
func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	var computed int
	leaderDone := make(chan *PlanResponse, 1)
	go func() {
		resp, err, shared := g.Do(context.Background(), "k", func() (*PlanResponse, error) {
			computed++
			<-release
			return &PlanResponse{Digest: "d1"}, nil
		})
		if err != nil || shared {
			t.Errorf("leader: err=%v shared=%v", err, shared)
		}
		leaderDone <- resp
	}()

	// Wait until the leader holds the key.
	for {
		g.mu.Lock()
		_, inFlight := g.m["k"]
		g.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan *PlanResponse, 1)
	go func() {
		resp, err, shared := g.Do(context.Background(), "k", func() (*PlanResponse, error) {
			t.Error("follower must not compute")
			return nil, nil
		})
		if err != nil || !shared {
			t.Errorf("follower: err=%v shared=%v", err, shared)
		}
		followerDone <- resp
	}()
	time.Sleep(10 * time.Millisecond) // let the follower block on done
	close(release)

	l, f := <-leaderDone, <-followerDone
	if l.Digest != "d1" || f.Digest != "d1" {
		t.Fatalf("responses diverged: %q vs %q", l.Digest, f.Digest)
	}
	if computed != 1 {
		t.Fatalf("computed %d times, want 1", computed)
	}
}

// TestFlightGroupLeaderCancelled: a follower whose leader died of
// cancellation — but whose own context is live — retries as the new leader
// instead of inheriting the error.
func TestFlightGroupLeaderCancelled(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	var mu sync.Mutex
	calls := 0
	go g.Do(context.Background(), "k", func() (*PlanResponse, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return nil, context.Canceled // the leader's request was cancelled
	})
	for {
		g.mu.Lock()
		_, inFlight := g.m["k"]
		g.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}

	type out struct {
		resp   *PlanResponse
		err    error
		shared bool
	}
	followerDone := make(chan out, 1)
	go func() {
		resp, err, shared := g.Do(context.Background(), "k", func() (*PlanResponse, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return &PlanResponse{Digest: "retry"}, nil
		})
		followerDone <- out{resp, err, shared}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	f := <-followerDone
	if f.err != nil || f.shared || f.resp.Digest != "retry" {
		t.Fatalf("follower retry: resp=%+v err=%v shared=%v", f.resp, f.err, f.shared)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (cancelled leader + retrying follower)", calls)
	}
}

// TestSaveCache covers the persistence hook the periodic saver and shutdown
// path share.
func TestSaveCache(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, noAdmission)
	if _, aerr := s.plan(context.Background(), &PlanRequest{Model: "OPT-6.7B", Devices: 4}); aerr != nil {
		t.Fatal(aerr)
	}
	if err := s.saveCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, core.CacheFileName)); err != nil {
		t.Fatalf("cache file missing after save: %v", err)
	}
	if s.lastSaveUnix.Load() == 0 || s.saves.Load() != 1 {
		t.Fatalf("save counters not updated: last=%d saves=%d", s.lastSaveUnix.Load(), s.saves.Load())
	}

	// A fresh server loading the directory serves the same plan warm.
	loaded := core.NewSearchCache()
	if err := loaded.Load(dir); err != nil {
		t.Fatal(err)
	}
	s2 := newServer(loaded, dir, time.Minute, 5*time.Minute, noAdmission)
	resp, aerr := s2.plan(context.Background(), &PlanRequest{Model: "OPT-6.7B", Devices: 4})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if resp.Stats.NodeEvals != 0 || resp.Stats.CrossCallPlanHits != 1 {
		t.Fatalf("restart was not warm: %+v", resp.Stats)
	}
}

// TestStartupRefusesOldCacheFile: a cache file written in PPSC v12, whose
// plan entries hold LayerCosts summed in the deleted tree DP's association,
// is refused by Load, and the daemon's startup load reports it and starts on an
// empty cache instead of exiting; its first plan is a cold search that
// answers normally.
func TestStartupRefusesOldCacheFile(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, noAdmission)
	if _, aerr := s.plan(context.Background(), &PlanRequest{Model: "OPT-6.7B", Devices: 4}); aerr != nil {
		t.Fatal(aerr)
	}
	if err := s.saveCache(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header's version to 12; the digest covers only the
	// payload, so nothing but the version check can refuse the file.
	path := filepath.Join(dir, core.CacheFileName)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(file[:4]) != "PPSC" || file[4] != 13 {
		t.Fatalf("unexpected header % x", file[:5])
	}
	file[4] = 12
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	cache := core.NewSearchCache()
	var stdout, stderr bytes.Buffer
	loadCache(cache, dir, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "unsupported version 12") || !strings.Contains(stderr.String(), "starting cold") {
		t.Fatalf("startup did not report the v12 file: stderr %q", stderr.String())
	}
	if n, e := cache.Sizes(); n != 0 || e != 0 || cache.PlanEntries() != 0 || stdout.Len() != 0 {
		t.Fatalf("refused file left %d nodes, %d edges, %d plans; stdout %q", n, e, cache.PlanEntries(), stdout.String())
	}
	s2 := newServer(cache, dir, time.Minute, 5*time.Minute, noAdmission)
	resp, aerr := s2.plan(context.Background(), &PlanRequest{Model: "OPT-6.7B", Devices: 4})
	if aerr != nil {
		t.Fatal(aerr)
	}
	if resp.Stats.NodeEvals == 0 || resp.Stats.CrossCallNodeHits != 0 {
		t.Fatalf("first plan after the refused file was not cold: %+v", resp.Stats)
	}
}

// TestStatsKeys pins /v1/stats after one cold plan, its warm repeat and a
// layer change, now a plan hit too: every key the repository
// benchmark and the CI smoke read is present, non-zero where the smoke
// expects it, and the search counters are the sum of the served responses'
// stats.
func TestStatsKeys(t *testing.T) {
	s := newTestServer(t, "", admissionConfig{MaxConcurrent: 2, MaxQueue: 4, QueueTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	base := PlanRequest{Model: "OPT-6.7B", Devices: 4, Layers: 2}
	var want core.SearchStats
	deeper := base
	deeper.Layers = 4
	for i, req := range []PlanRequest{base, base, deeper} {
		out := postPlan(t, ts, req)
		if out.resp == nil {
			t.Fatalf("plan %d failed: %d %s", i, out.status, out.env.Message)
		}
		want.Add(out.resp.Stats)
	}

	httpResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	adm, ok := st["admission"].(map[string]any)
	if !ok {
		t.Fatalf("no admission section: %v", st)
	}
	if _, ok := st["dedup_hits"].(float64); !ok {
		t.Error(`key "dedup_hits" missing`)
	}
	for _, k := range []string{"plans_served", "warm_served", "cache_nodes", "cache_edges",
		"cache_plans", "cross_call_plan_hits",
		"cands_total", "entries_scanned"} {
		if v, ok := st[k].(float64); !ok || v == 0 {
			t.Errorf("key %q = %v, want a non-zero number", k, st[k])
		}
	}
	// cache_tables and cross_call_table_hits always read zero (DESIGN.md
	// §5.34); the keys stay because the repository benchmark reads them.
	// Node and edge hits read zero here: a cold search and two plan hits,
	// which run no node pass, consult neither tier.
	for _, k := range []string{"cross_call_node_hits", "cross_call_edge_hits", "cache_tables", "cross_call_table_hits"} {
		if _, ok := st[k].(float64); !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if v, _ := st["cross_call_plan_hits"].(float64); v != 2 {
		t.Errorf("cross_call_plan_hits = %v, want 2 (the warm repeat and the layer change)", v)
	}
	for _, k := range []string{"queued", "shed_queue_full", "shed_queue_timeout", "shed_deadline", "shed_memory",
		"running", "queue_depth"} {
		if _, ok := adm[k].(float64); !ok {
			t.Errorf("admission key %q missing", k)
		}
	}
	if v, ok := adm["admitted"].(float64); !ok || v == 0 {
		t.Errorf("admission key \"admitted\" = %v, want a non-zero number", adm["admitted"])
	}
	for k, w := range map[string]int64{
		"cross_call_node_hits":  int64(want.CrossCallNodeHits),
		"cross_call_edge_hits":  int64(want.CrossCallEdgeHits),
		"cross_call_table_hits": int64(want.CrossCallTableHits),
		"cross_call_plan_hits":  int64(want.CrossCallPlanHits),
		"cands_total":           int64(want.CandsTotal),
		"entries_scanned":       want.EntriesScanned,
		"node_evals":            int64(want.NodeEvals),
	} {
		if got, _ := st[k].(float64); int64(got) != w {
			t.Errorf("%s = %v, want the served total %d", k, st[k], w)
		}
	}
}

// TestRequestIDEchoed pins request IDs: a valid X-Request-Id comes back
// unchanged, a missing or hostile one (control bytes, non-ASCII, over 128
// bytes) is replaced by a generated 32-hex-digit ID, and the answer's ID
// appears both as the response header and as request_id in an error
// envelope — on success and error answers alike.
func TestRequestIDEchoed(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	h := s.handler()
	generated := func(id string) bool {
		if len(id) != 32 {
			return false
		}
		_, err := hex.DecodeString(id)
		return err == nil
	}
	for _, tc := range []struct {
		name, sent string
		echoed     bool
	}{
		{"sent", "req-42/abc:7", true},
		{"missing", "", false},
		{"control bytes", "a\r\nX-Injected: 1", false},
		{"non-ASCII", "r\xc3\xa9q", false},
		{"oversized", strings.Repeat("x", maxRequestIDLen+1), false},
	} {
		for _, path := range []string{"/v1/healthz", "/v1/plan"} {
			body := strings.NewReader(`{"model":"GPT-9"}`)
			req := httptest.NewRequest(http.MethodPost, path, body)
			if path == "/v1/healthz" {
				req = httptest.NewRequest(http.MethodGet, path, nil)
			}
			if tc.sent != "" {
				req.Header[requestIDHeader] = []string{tc.sent}
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			id := rec.Header().Get(requestIDHeader)
			if tc.echoed && id != tc.sent {
				t.Errorf("%s %s: header %q, want the sent %q", tc.name, path, id, tc.sent)
			}
			if !tc.echoed && !generated(id) {
				t.Errorf("%s %s: header %q, want a generated 32-hex-digit ID", tc.name, path, id)
			}
			if path == "/v1/plan" {
				var env errorEnvelope
				if err := json.NewDecoder(rec.Body).Decode(&env); err != nil || rec.Code != http.StatusBadRequest {
					t.Fatalf("%s: status %d, envelope error %v", tc.name, rec.Code, err)
				}
				if env.RequestID != id {
					t.Errorf("%s: envelope request_id %q, header %q", tc.name, env.RequestID, id)
				}
			}
		}
	}
	// Two requests without an ID get different ones.
	a, b := httptest.NewRecorder(), httptest.NewRecorder()
	h.ServeHTTP(a, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	h.ServeHTTP(b, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if a.Header().Get(requestIDHeader) == b.Header().Get(requestIDHeader) {
		t.Error("two requests without an ID were given the same generated ID")
	}
}

// TestDebugHandlerSeparate: the pprof endpoints answer on the -debug-addr
// handler and nowhere on the /v1 handler.
func TestDebugHandlerSeparate(t *testing.T) {
	for _, c := range []struct {
		name string
		h    http.Handler
		want int
	}{
		{"debug handler", debugHandler(), http.StatusOK},
		{"/v1 handler", newTestServer(t, "", noAdmission).handler(), http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
		if rec.Code != c.want {
			t.Errorf("%s: GET /debug/pprof/cmdline answered %d, want %d", c.name, rec.Code, c.want)
		}
	}
}

// TestPlanNodesMatchPlanReport: /v1/plan's nodes and primepar's PlanReport
// rows carry the same per-layer cost-model terms, bit for bit, and the
// attribution table prints the same memory term.
func TestPlanNodesMatchPlanReport(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 8, Alpha: fptr(1e-12)})
	if out.resp == nil {
		t.Fatalf("plan failed: %d %s", out.status, out.env.Message)
	}

	cluster, err := primepar.NewCluster(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := primepar.Search(primepar.OPT6B7(), cluster, primepar.Options{Alpha: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Digest() != out.resp.Digest {
		t.Fatalf("library and daemon chose different plans: %s vs %s", plan.Digest(), out.resp.Digest)
	}
	rep, err := plan.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) != len(out.resp.Nodes) {
		t.Fatalf("%d report rows, %d /v1 nodes", len(rep.Ops), len(out.resp.Nodes))
	}
	table := map[string][]string{}
	for _, line := range strings.Split(rep.Attribution(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			table[f[0]] = f
		}
	}
	for i, n := range out.resp.Nodes {
		row := rep.Ops[i]
		if n.Name != row.Name || n.Seq != row.Seq {
			t.Fatalf("node %d: /v1 %s %s, report %s %s", i, n.Name, n.Seq, row.Name, row.Seq)
		}
		for _, c := range []struct {
			field     string
			wire, lib float64
		}{
			{"compute_s", n.Compute, row.Model.Compute},
			{"ring_total_s", n.RingTotal, row.Model.RingTotal},
			{"all_reduce_s", n.AllReduce, row.Model.AllReduce},
			{"memory_bytes", n.MemoryBytes, row.Model.MemoryBytes},
		} {
			if math.Float64bits(c.wire) != math.Float64bits(c.lib) {
				t.Errorf("%s %s: /v1 %v, report %v", n.Name, c.field, c.wire, c.lib)
			}
		}
		f := table[n.Name]
		if len(f) == 0 || f[len(f)-1] != report.Bytes(n.MemoryBytes) {
			t.Errorf("%s: attribution row %q does not end in memory_bytes %s", n.Name, f, report.Bytes(n.MemoryBytes))
		}
	}
}
