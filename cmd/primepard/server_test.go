package main

import (
	"bytes"
	"context"
	"encoding/json"
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
// (zero node/edge/DP work, node and plan hits) with an identical digest.
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
	if warm.resp.Stats.CrossCallNodeHits == 0 || warm.resp.Stats.CrossCallPlanHits != 1 ||
		warm.resp.Stats.EntriesScanned != 0 {
		t.Fatalf("warm plan not served from the node and plan tiers: %+v", warm.resp.Stats)
	}
	if warm.resp.Digest != cold.resp.Digest || warm.resp.TotalCost != cold.resp.TotalCost {
		t.Fatalf("warm plan diverged: digest %s vs %s, total %v vs %v",
			warm.resp.Digest, cold.resp.Digest, warm.resp.TotalCost, cold.resp.TotalCost)
	}

	// /v1/stats reflects both requests and the warm hits.
	st := getStats(t, ts)
	if st.PlansServed != 2 || st.CrossCallNodeHits == 0 || st.CacheNodes == 0 || st.CacheEdges == 0 ||
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

// TestPlanTimeoutThenRecover pins the acceptance criterion: a request with a
// deliberately generous search budget but a tiny deadline is cancelled
// promptly (504 once the search overruns it), and the shared cache stays
// fully usable for the next request. Admission is disabled so the tiny
// deadline reaches the search instead of being shed up front.
func TestPlanTimeoutThenRecover(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	start := time.Now()
	out := postPlan(t, ts, PlanRequest{
		Model: "OPT-175B", Devices: 8, BudgetMS: 600_000, DeadlineMS: 1,
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
	if elapsed > 30*time.Second {
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
	_, aerr := s.plan(ctx, &PlanRequest{Model: "OPT-6.7B", Devices: 4, BudgetMS: 600_000})
	if aerr == nil || aerr.status != 499 || aerr.code != "client_closed" {
		t.Fatalf("aerr = %+v, want 499 client_closed", aerr)
	}
	if n, e := s.cache.Sizes(); n != 0 || e != 0 || s.cache.TableEntries() != 0 || s.cache.PlanEntries() != 0 {
		t.Fatalf("cancelled plan published %d nodes, %d edges, %d layer tables, %d plans",
			n, e, s.cache.TableEntries(), s.cache.PlanEntries())
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
		{"negative beam", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"beam":-1}`, http.StatusBadRequest},
		{"negative budget", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"budget_ms":-1}`, http.StatusBadRequest},
		{"budget overflows Duration", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"budget_ms":9223372036854775}`, http.StatusBadRequest},
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
		if _, ok := env["retryable"]; code == "" || msg == "" || !ok || len(env) != 3 {
			t.Errorf("%s: malformed envelope %v", c.name, env)
		}
	}
	// The unversioned pre-v1 paths are gone.
	for _, path := range []string{"/plan", "/healthz", "/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestPlanTooManyDevicesRejected: a device count above device.MaxDevices
// answers bad_request before any estimate runs, on plain, pipeline and
// sweep requests (base and point). At 2048 devices the estimate alone used
// to exhaust memory, so each answer must come back quickly.
func TestPlanTooManyDevicesRejected(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	tooMany := 2 * device.MaxDevices
	pipe := &PipelineSpec{MicroBatch: 2, GlobalBatch: 64}
	start := time.Now()
	for _, req := range []PlanRequest{
		{Model: "OPT-6.7B", Devices: tooMany},
		{Model: "OPT-6.7B", Devices: tooMany, Pipeline: pipe},
	} {
		out := postPlan(t, ts, req)
		if out.status != http.StatusBadRequest || out.env.Code != "bad_request" {
			t.Errorf("pipeline=%v: got %d %q, want 400 bad_request", req.Pipeline != nil, out.status, out.env.Code)
		}
	}
	base := postSweep(t, ts, SweepRequest{
		PlanRequest: PlanRequest{Model: "OPT-6.7B", Devices: tooMany},
		Points:      []SweepPoint{{}},
	})
	if base.status != http.StatusBadRequest || base.env.Code != "bad_request" {
		t.Errorf("sweep base: got %d %q, want 400 bad_request", base.status, base.env.Code)
	}
	point := postSweep(t, ts, SweepRequest{
		PlanRequest: PlanRequest{Model: "OPT-6.7B", Devices: 4, Layers: 1},
		Points:      []SweepPoint{{Devices: tooMany}, {Devices: tooMany, Pipeline: pipe}},
	})
	if point.resp == nil || point.resp.Failed != 2 {
		t.Fatalf("sweep points: got %d %+v, want both points failed", point.status, point.resp)
	}
	for i, r := range point.resp.Results {
		if r.Error == nil || r.Error.Code != "bad_request" {
			t.Errorf("sweep point %d: %+v, want bad_request", i, r)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rejecting %d devices took %v", tooMany, d)
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
	if resp.Stats.NodeEvals != 0 || resp.Stats.CrossCallNodeHits == 0 {
		t.Fatalf("restart was not warm: %+v", resp.Stats)
	}
}
