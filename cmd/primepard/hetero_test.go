package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPlanAlphaZeroHonored pins the presence-based α contract: an explicit
// "alpha": 0 is the pure-latency objective, not an omission, and must reach
// the search as 0 rather than be coerced to the server default.
func TestPlanAlphaZeroHonored(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Alpha: fptr(0)})
	if out.resp == nil {
		t.Fatalf("alpha=0 plan failed: %d %s", out.status, out.env.Message)
	}
	if out.resp.Alpha != 0 {
		t.Fatalf("alpha echoed as %v, want the explicit 0", out.resp.Alpha)
	}

	// Omitted α still gets the server default.
	def := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4})
	if def.resp == nil {
		t.Fatalf("default plan failed: %d %s", def.status, def.env.Message)
	}
	if def.resp.Alpha != 1e-12 {
		t.Fatalf("omitted alpha echoed as %v, want default 1e-12", def.resp.Alpha)
	}
}

func TestPlanNegativeAlphaRejected(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Alpha: fptr(-1e-12)})
	if out.status != http.StatusBadRequest {
		t.Fatalf("negative alpha returned %d, want 400", out.status)
	}
	if out.env.Code != "bad_request" {
		t.Fatalf("negative alpha code = %q, want bad_request", out.env.Code)
	}
}

// TestPlanProfileEcho is the CI smoke assertion in test form: a named
// heterogeneous profile is echoed back, and its plan digest differs from
// the V100 default for the same model and devices served by ONE daemon
// (i.e. one shared cache — no cross-profile aliasing).
func TestPlanProfileEcho(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	v100 := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 8})
	if v100.resp == nil {
		t.Fatalf("v100 plan failed: %d %s", v100.status, v100.env.Message)
	}
	if v100.resp.Profile != "v100-cluster" || v100.resp.Topology != "switch" {
		t.Fatalf("default machine echo = %q/%q, want v100-cluster/switch",
			v100.resp.Profile, v100.resp.Topology)
	}

	for _, tc := range []struct {
		name         string
		digestDiffer bool
	}{
		{"a100-cluster", true},
		{"a100-superpod", true},
		// The mixed fleet's SPMD step time is V100-dominated on identical
		// interconnect, so the OPTIMAL PLAN legitimately coincides with the
		// V100 one — only the cache keys must stay disjoint (pinned by
		// core.TestSharedCacheCrossProfileNoAliasing).
		{"mixed-a100-v100", false},
	} {
		out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 8, Profile: tc.name})
		if out.resp == nil {
			t.Fatalf("%s plan failed: %d %s", tc.name, out.status, out.env.Message)
		}
		if out.resp.Profile != tc.name {
			t.Errorf("profile echo = %q, want %q", out.resp.Profile, tc.name)
		}
		if tc.digestDiffer && out.resp.Digest == v100.resp.Digest {
			t.Errorf("%s digest equals the V100 digest %s — profile not reaching the search",
				tc.name, v100.resp.Digest)
		}
	}
}

func TestPlanCustomLinks(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	v100 := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 8})
	if v100.resp == nil {
		t.Fatalf("v100 plan failed: %d %s", v100.status, v100.env.Message)
	}
	custom := postPlan(t, ts, PlanRequest{
		Model: "OPT-6.7B", Devices: 8,
		Links: []LinkSpec{
			{Name: "nvlink", Devices: 4, Bandwidth: 300e9, Latency: 5e-6},
			{Name: "fabric", Devices: -1, Bandwidth: 10e9, Latency: 20e-6},
		},
	})
	if custom.resp == nil {
		t.Fatalf("custom-links plan failed: %d %s", custom.status, custom.env.Message)
	}
	if custom.resp.Profile != "v100-cluster+custom-links" {
		t.Errorf("custom-links profile echo = %q, want v100-cluster+custom-links", custom.resp.Profile)
	}
	if custom.resp.Digest == v100.resp.Digest {
		t.Errorf("custom 10 GB/s fabric produced the V100 digest %s", v100.resp.Digest)
	}

	// Bad tier widths surface as bad_request, not a 500 or silent default.
	bad := postPlan(t, ts, PlanRequest{
		Model: "OPT-6.7B", Devices: 8,
		Links: []LinkSpec{{Name: "x", Devices: 3, Bandwidth: 1e9}},
	})
	if bad.status != http.StatusBadRequest || bad.env.Code != "bad_request" {
		t.Fatalf("width-3 tier returned %d %q, want 400 bad_request", bad.status, bad.env.Code)
	}
}

// Non-finite link parameters are rejected with bad_request. JSON cannot
// spell NaN or ±Inf, and an overflowing literal fails the decode; a request
// built in Go still reaches the cluster constructor, which rejects them.
func TestPlanNonFiniteLinksRejected(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	for _, tc := range []struct {
		name    string
		bw, lat float64
	}{
		{"NaN bandwidth", math.NaN(), 15e-6},
		{"+Inf bandwidth", math.Inf(1), 15e-6},
		{"NaN latency", 25e9, math.NaN()},
		{"+Inf latency", 25e9, math.Inf(1)},
		{"-Inf latency", 25e9, math.Inf(-1)},
	} {
		_, aerr := s.preparePlan(&PlanRequest{
			Model: "OPT-6.7B", Devices: 8,
			Links: []LinkSpec{
				{Name: "nvlink", Devices: 4, Bandwidth: 300e9, Latency: 5e-6},
				{Name: "fabric", Devices: -1, Bandwidth: tc.bw, Latency: tc.lat},
			},
		})
		if aerr == nil || aerr.code != "bad_request" {
			t.Errorf("%s: got %v, want bad_request", tc.name, aerr)
		}
	}

	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	body := `{"model":"OPT-6.7B","devices":8,"links":[{"name":"fabric","devices":-1,"bandwidth":1e999,"latency":0}]}`
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" {
		t.Fatalf("overflowing bandwidth returned %d %q, want 400 bad_request", resp.StatusCode, env.Code)
	}
}

func TestPlanUnknownProfileRejected(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Profile: "h100-moonbase"})
	if out.status != http.StatusBadRequest || out.env.Code != "bad_request" {
		t.Fatalf("unknown profile returned %d %q, want 400 bad_request", out.status, out.env.Code)
	}
}

func TestPlanTopologyOverride(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// The V100 preset does not parameterize a torus link: overriding its
	// topology would silently divide by TorusBW = 0, so it must be refused.
	out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Topology: "torus-2d"})
	if out.status != http.StatusBadRequest {
		t.Fatalf("torus override on v100 returned %d, want 400", out.status)
	}

	torus := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Profile: "tpuv4-torus"})
	if torus.resp == nil {
		t.Fatalf("tpuv4 plan failed: %d %s", torus.status, torus.env.Message)
	}
	if torus.resp.Topology != "torus-2d" {
		t.Errorf("tpuv4 topology echo = %q, want torus-2d", torus.resp.Topology)
	}

	if bad := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Topology: "hypercube"}); bad.status != http.StatusBadRequest {
		t.Fatalf("unknown topology returned %d, want 400", bad.status)
	}
}

// TestPlanProfileDimension: one server plans the same request on the V100
// testbed and on a100-cluster; each plan echoes its own machine and the two
// digests differ, so the shared cache keeps the machines' entries apart.
func TestPlanProfileDimension(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	v100 := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4})
	a100 := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 4, Profile: "a100-cluster"})
	if v100.resp == nil || a100.resp == nil {
		t.Fatalf("plans failed: %d %s / %d %s", v100.status, v100.env.Message, a100.status, a100.env.Message)
	}
	if v100.resp.Profile != "v100-cluster" || a100.resp.Profile != "a100-cluster" {
		t.Errorf("profile echoes %q and %q, want v100-cluster and a100-cluster", v100.resp.Profile, a100.resp.Profile)
	}
	if v100.resp.Digest == a100.resp.Digest {
		t.Errorf("a100 plan shares the V100 digest %s", v100.resp.Digest)
	}
}
