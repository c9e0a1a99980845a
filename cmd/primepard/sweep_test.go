package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fptr builds the presence-carrying α pointer requests use on the wire.
func fptr(v float64) *float64 { return &v }

// sweepOutcome is one /v1/plan/sweep exchange.
type sweepOutcome struct {
	resp   *SweepResponse
	status int
	env    errorEnvelope
}

func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest) sweepOutcome {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/v1/plan/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	out := sweepOutcome{status: httpResp.StatusCode}
	if httpResp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&out.env); err != nil {
			t.Fatalf("non-200 body is not an error envelope: %v", err)
		}
		return out
	}
	out.resp = &SweepResponse{}
	if err := json.NewDecoder(httpResp.Body).Decode(out.resp); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepValidation covers the 4xx paths and envelope conformance of the
// sweep endpoint, mirroring TestPlanValidation.
func TestSweepValidation(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	manyPoints := `{"model":"OPT-6.7B","devices":4,"points":[` +
		strings.Repeat(`{"devices":4},`, maxSweepPoints) + `{"devices":8}]}`
	cases := []struct {
		name   string
		method string
		body   string
		want   int
		code   string
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad json", http.MethodPost, "{", http.StatusBadRequest, "bad_request"},
		{"unknown field", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"warp":9,"points":[{}]}`, http.StatusBadRequest, "bad_request"},
		{"no points", http.MethodPost, `{"model":"OPT-6.7B","devices":4}`, http.StatusBadRequest, "bad_request"},
		{"empty points", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"points":[]}`, http.StatusBadRequest, "bad_request"},
		{"too many points", http.MethodPost, manyPoints, http.StatusBadRequest, "bad_request"},
		{"unknown model", http.MethodPost, `{"model":"GPT-9","devices":4,"points":[{}]}`, http.StatusBadRequest, "bad_request"},
		{"bad base devices", http.MethodPost, `{"model":"OPT-6.7B","devices":3,"points":[{}]}`, http.StatusBadRequest, "bad_request"},
		{"negative base budget", http.MethodPost, `{"model":"OPT-6.7B","devices":4,"budget_ms":-5,"points":[{}]}`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+"/v1/plan/sweep", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if env.Code != c.code || env.Message == "" {
			t.Errorf("%s: malformed envelope %+v", c.name, env)
		}
	}
}

// TestSweepSharesAcrossPoints is the portfolio contract end to end: a sweep
// over (base, α shift, layer change) plans every point, reports the delta
// dimensions, provably shares work between points (the α point re-evaluates
// no nodes; the layer point rebuilds no tables), and every point's digest is
// byte-identical to an individually cold-planned /v1/plan of the same
// request on a fresh server.
func TestSweepSharesAcrossPoints(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	base := PlanRequest{Model: "OPT-6.7B", Devices: 4, Layers: 2}
	out := postSweep(t, ts, SweepRequest{
		PlanRequest: base,
		Points:      []SweepPoint{{}, {Alpha: fptr(1e-10)}, {Layers: 4}},
	})
	if out.resp == nil {
		t.Fatalf("sweep failed: %d %s", out.status, out.env.Message)
	}
	if out.resp.Planned != 3 || out.resp.Failed != 0 {
		t.Fatalf("planned %d / failed %d, want 3/0", out.resp.Planned, out.resp.Failed)
	}

	r := out.resp.Results
	if len(r[0].DeltaDims) != 0 {
		t.Errorf("base point delta_dims = %v, want none", r[0].DeltaDims)
	}
	if len(r[1].DeltaDims) != 1 || r[1].DeltaDims[0] != "alpha" {
		t.Errorf("α point delta_dims = %v, want [alpha]", r[1].DeltaDims)
	}
	if len(r[2].DeltaDims) != 1 || r[2].DeltaDims[0] != "layers" {
		t.Errorf("layer point delta_dims = %v, want [layers]", r[2].DeltaDims)
	}

	if r[0].Plan.Stats.NodeEvals == 0 {
		t.Fatalf("base point did no node work: %+v", r[0].Plan.Stats)
	}
	// The α point reuses every node and edge entry; only the DP re-runs.
	if st := r[1].Plan.Stats; st.NodeEvals != 0 || st.CrossCallNodeHits == 0 ||
		st.CrossCallTableHits != 0 || st.SegTablesBuilt == 0 {
		t.Errorf("α point frontier wrong: %+v", st)
	}
	// The layer point reuses every tier including whole segment tables.
	if st := r[2].Plan.Stats; st.NodeEvals != 0 || st.SegTablesBuilt != 0 ||
		st.CrossCallTableHits == 0 {
		t.Errorf("layer point frontier wrong: %+v", st)
	}
	if out.resp.Totals.NodeEvals != int64(r[0].Plan.Stats.NodeEvals) {
		t.Errorf("totals node_evals = %d, want only the base point's %d",
			out.resp.Totals.NodeEvals, r[0].Plan.Stats.NodeEvals)
	}

	// Digest parity: each point individually cold-planned on a FRESH server
	// must produce the same digest and costs the sweep reported.
	cold := newTestServer(t, "", noAdmission)
	tsCold := httptest.NewServer(cold.handler())
	defer tsCold.Close()
	individual := []PlanRequest{
		base,
		{Model: base.Model, Devices: base.Devices, Layers: 2, Alpha: fptr(1e-10)},
		{Model: base.Model, Devices: base.Devices, Layers: 4},
	}
	for i, req := range individual {
		got := postPlan(t, tsCold, req)
		if got.resp == nil {
			t.Fatalf("individual plan %d failed: %d", i, got.status)
		}
		if got.resp.Digest != r[i].Plan.Digest {
			t.Errorf("point %d digest %s, individual cold plan %s", i, r[i].Plan.Digest, got.resp.Digest)
		}
		if got.resp.TotalCost != r[i].Plan.TotalCost {
			t.Errorf("point %d total %v, individual %v", i, r[i].Plan.TotalCost, got.resp.TotalCost)
		}
	}

	// A repeat of the whole sweep is served entirely from cache.
	again := postSweep(t, ts, SweepRequest{
		PlanRequest: base,
		Points:      []SweepPoint{{}, {Alpha: fptr(1e-10)}, {Layers: 4}},
	})
	if again.resp == nil {
		t.Fatalf("repeat sweep failed: %d", again.status)
	}
	tot := again.resp.Totals
	if tot.NodeEvals != 0 || tot.EdgeMatsBuilt != 0 || tot.SegTablesBuilt != 0 {
		t.Errorf("repeat sweep did work: %+v", tot)
	}
	if tot.CrossCallTableHits == 0 {
		t.Errorf("repeat sweep missed the table tier: %+v", tot)
	}
	for i := range again.resp.Results {
		if again.resp.Results[i].Plan.Digest != r[i].Plan.Digest {
			t.Errorf("repeat sweep point %d digest diverged", i)
		}
	}

	st := getStats(t, ts)
	if st.SweepsServed != 2 || st.SweepPointsPlanned != 6 || st.SweepPointsFailed != 0 {
		t.Errorf("sweep counters wrong: %+v", st)
	}
	if st.CacheTables == 0 || st.CrossCallTableHits == 0 {
		t.Errorf("table tier invisible in stats: tables=%d hits=%d", st.CacheTables, st.CrossCallTableHits)
	}
	// Sweeps must not inflate the /v1/plan counter.
	if st.PlansServed != 0 {
		t.Errorf("plans_served = %d after sweeps only, want 0", st.PlansServed)
	}
}

// TestSweepPartialFailure: one bad point sheds that point with the uniform
// envelope in its result slot; the rest of the sweep still plans.
func TestSweepPartialFailure(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	out := postSweep(t, ts, SweepRequest{
		PlanRequest: PlanRequest{Model: "OPT-6.7B", Devices: 4, Layers: 1},
		Points:      []SweepPoint{{Devices: 3}, {}, {Devices: 6}},
	})
	if out.resp == nil {
		t.Fatalf("sweep failed outright: %d %s", out.status, out.env.Message)
	}
	if out.resp.Planned != 1 || out.resp.Failed != 2 {
		t.Fatalf("planned %d / failed %d, want 1/2", out.resp.Planned, out.resp.Failed)
	}
	r := out.resp.Results
	if r[0].Error == nil || r[0].Error.Code != "bad_request" || r[0].Plan != nil {
		t.Errorf("bad-devices point: %+v", r[0])
	}
	if r[1].Plan == nil || r[1].Error != nil {
		t.Errorf("good point did not plan: %+v", r[1])
	}
	if r[2].Error == nil || r[2].Error.Code != "bad_request" {
		t.Errorf("bad-devices point: %+v", r[2])
	}

	st := getStats(t, ts)
	if st.SweepPointsPlanned != 1 || st.SweepPointsFailed != 2 {
		t.Errorf("partial-failure counters wrong: %+v", st)
	}
}

// TestSweepOneAdmissionSlot: a whole portfolio consumes exactly ONE
// admission slot. With MaxConcurrent=1/MaxQueue=0 and the slot held, a cold
// sweep sheds with queue_full; with the slot free, a 3-point sweep admits
// once and plans all points.
func TestSweepOneAdmissionSlot(t *testing.T) {
	s := newTestServer(t, "", admissionConfig{MaxConcurrent: 1, MaxQueue: 0, QueueTimeout: time.Second})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// Hold the only slot.
	release, aerr := s.adm.admit(context.Background(), false, 0, time.Time{})
	if aerr != nil || release == nil {
		t.Fatalf("manual admit failed: %+v", aerr)
	}

	req := SweepRequest{
		PlanRequest: PlanRequest{Model: "OPT-6.7B", Devices: 4, Layers: 1},
		Points:      []SweepPoint{{}, {Alpha: fptr(1e-10)}, {Layers: 2}},
	}
	shed := postSweep(t, ts, req)
	if shed.status != http.StatusServiceUnavailable || shed.env.Code != "queue_full" {
		t.Fatalf("sweep with slot held: %d %s, want 503 queue_full", shed.status, shed.env.Code)
	}
	if !shed.env.Retryable {
		t.Error("queue_full shed must be retryable")
	}

	release()
	ok := postSweep(t, ts, req)
	if ok.resp == nil {
		t.Fatalf("sweep after release failed: %d %s", ok.status, ok.env.Message)
	}
	if ok.resp.Planned != 3 {
		t.Fatalf("planned %d, want 3", ok.resp.Planned)
	}
	// Two admissions total: the manual hold and the ONE slot for 3 points.
	if got := s.adm.admitted.Load(); got != 2 {
		t.Errorf("admitted = %d, want 2 (one manual + one for the whole sweep)", got)
	}
	if shedQF := s.adm.shedQueueFull.Load(); shedQF != 1 {
		t.Errorf("shed_queue_full = %d, want 1", shedQF)
	}
}

// TestSweepCancellation drives s.sweep directly: an already-cancelled
// context fails the WHOLE sweep with the client_closed mapping, and an
// expired deadline maps to deadline_exceeded.
func TestSweepCancellation(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	req := SweepRequest{
		PlanRequest: PlanRequest{Model: "OPT-6.7B", Devices: 4, Layers: 1},
		Points:      []SweepPoint{{}, {Alpha: fptr(1e-10)}},
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, aerr := s.sweep(ctx, &req)
	if aerr == nil || aerr.status != 499 || aerr.code != "client_closed" {
		t.Fatalf("cancelled sweep: %+v, want 499 client_closed", aerr)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, aerr = s.sweep(dctx, &req)
	if aerr == nil || aerr.status != http.StatusGatewayTimeout || aerr.code != "deadline_exceeded" {
		t.Fatalf("expired sweep: %+v, want 504 deadline_exceeded", aerr)
	}

	// The server still serves a normal sweep afterwards.
	resp, aerr := s.sweep(context.Background(), &req)
	if aerr != nil || resp == nil || resp.Planned != 2 {
		t.Fatalf("sweep after cancellation: %+v %+v", resp, aerr)
	}
}
