package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/pipeline"
)

// TestPlanPipelineAuto is the joint-planning contract on the wire: a request
// with pipeline.stages="auto" answers with the chosen (p,d,m), a stage cut
// that covers the model, per-stage strategies, a schedule breakdown that sums
// to the iteration time, and a digest that is stable across identical
// requests.
func TestPlanPipelineAuto(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	req := PlanRequest{Model: "OPT-6.7B", Devices: 8,
		Pipeline: &PipelineSpec{Stages: StagesSpec{Auto: true}, MicroBatch: 2, GlobalBatch: 32}}
	cold := postPlan(t, ts, req)
	if cold.resp == nil {
		t.Fatalf("pipeline plan failed: %d %s", cold.status, cold.env.Message)
	}
	pp := cold.resp.Pipeline
	if pp == nil {
		t.Fatal("response has no pipeline section")
	}
	if pp.System != "PrimePar" || pp.MicroBatch != 2 || pp.GlobalBatch != 32 {
		t.Fatalf("echo mismatch: %+v", pp)
	}
	if pp.Stages*pp.DataParallel*pp.ModelParallel != 8 {
		t.Fatalf("p·d·m = %d·%d·%d ≠ 8", pp.Stages, pp.DataParallel, pp.ModelParallel)
	}
	if len(pp.StageLayers) != pp.Stages || len(pp.StagePlans) != pp.Stages {
		t.Fatalf("stage count mismatch: layers=%v plans=%d stages=%d",
			pp.StageLayers, len(pp.StagePlans), pp.Stages)
	}
	covered := 0
	for i, st := range pp.StagePlans {
		if st.Layers != pp.StageLayers[i] {
			t.Fatalf("stage %d layers %d ≠ stage_layers %d", i, st.Layers, pp.StageLayers[i])
		}
		if len(st.Seqs) == 0 {
			t.Fatalf("stage %d has no strategy seqs", i)
		}
		covered += st.Layers
	}
	if covered < 32 {
		t.Fatalf("stage cut covers %d of 32 layers", covered)
	}
	bd := pp.Breakdown
	sum := bd.Warmup + bd.Steady + bd.Drain + bd.AllReduce
	if math.Abs(sum-pp.IterationS) > 1e-9*pp.IterationS {
		t.Fatalf("breakdown %v does not sum to iteration %v", sum, pp.IterationS)
	}
	if pp.IterationS <= 0 || pp.Throughput <= 0 || pp.PeakMemoryBytes <= 0 {
		t.Fatalf("degenerate plan: %+v", pp)
	}
	if cold.resp.Digest == "" || len(cold.resp.Nodes) != 0 {
		t.Fatalf("pipeline response shape: digest=%q nodes=%d", cold.resp.Digest, len(cold.resp.Nodes))
	}
	if cold.resp.Stats.NodeEvals == 0 {
		t.Fatalf("cold joint plan reports no search work: %+v", cold.resp.Stats)
	}

	warm := postPlan(t, ts, req)
	if warm.resp == nil {
		t.Fatalf("warm pipeline plan failed: %d", warm.status)
	}
	if warm.resp.Digest != cold.resp.Digest {
		t.Fatalf("digest unstable across identical requests: %s vs %s",
			warm.resp.Digest, cold.resp.Digest)
	}
	if warm.resp.Pipeline.IterationS != pp.IterationS {
		t.Fatalf("iteration time unstable: %v vs %v", warm.resp.Pipeline.IterationS, pp.IterationS)
	}
	if warm.resp.Stats.NodeEvals != 0 {
		t.Fatalf("warm joint plan recomputed %d node evals", warm.resp.Stats.NodeEvals)
	}
}

// TestPlanPipelineFixedStages pins the depth and checks the echo round-trips
// the fixed spec (marshal of a fixed StagesSpec is the integer, "auto"
// otherwise).
func TestPlanPipelineFixedStages(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	out := postPlan(t, ts, PlanRequest{Model: "OPT-6.7B", Devices: 8,
		Pipeline: &PipelineSpec{Stages: StagesSpec{N: 4}, MicroBatch: 2, GlobalBatch: 32, System: "megatron"}})
	if out.resp == nil {
		t.Fatalf("fixed-stages plan failed: %d %s", out.status, out.env.Message)
	}
	pp := out.resp.Pipeline
	if pp.Stages != 4 || pp.System != "Megatron-LM" {
		t.Fatalf("fixed depth not honored: %+v", pp)
	}
	raw, err := json.Marshal(pp.Requested)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"stages":4`) {
		t.Fatalf("requested echo lost the fixed depth: %s", raw)
	}
}

// TestPlanPipelineValidation: every malformed spec answers 400 with the
// uniform bad_request envelope and a message naming the field.
func TestPlanPipelineValidation(t *testing.T) {
	s := newTestServer(t, "", noAdmission)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  PlanRequest
		want string
	}{
		{"non-power-of-two stages",
			PlanRequest{Model: "OPT-6.7B", Devices: 8,
				Pipeline: &PipelineSpec{Stages: StagesSpec{N: 3}, MicroBatch: 2, GlobalBatch: 32}},
			"power of two"},
		{"indivisible global batch",
			PlanRequest{Model: "OPT-6.7B", Devices: 8,
				Pipeline: &PipelineSpec{MicroBatch: 2, GlobalBatch: 33}},
			"not divisible"},
		{"indivisible across data_parallel",
			PlanRequest{Model: "OPT-6.7B", Devices: 8,
				Pipeline: &PipelineSpec{MicroBatch: 2, GlobalBatch: 4, DataParallel: 4}},
			"data_parallel"},
		{"missing micro_batch",
			PlanRequest{Model: "OPT-6.7B", Devices: 8,
				Pipeline: &PipelineSpec{GlobalBatch: 32}},
			"micro_batch"},
		{"unknown system",
			PlanRequest{Model: "OPT-6.7B", Devices: 8,
				Pipeline: &PipelineSpec{MicroBatch: 2, GlobalBatch: 32, System: "alpa"}},
			"pipeline.system"},
		{"depth exceeding devices",
			PlanRequest{Model: "OPT-6.7B", Devices: 8,
				Pipeline: &PipelineSpec{Stages: StagesSpec{N: 16}, MicroBatch: 2, GlobalBatch: 32}},
			"no feasible"},
	}
	for _, tc := range cases {
		out := postPlan(t, ts, tc.req)
		if out.status != 400 || out.env.Code != "bad_request" {
			t.Fatalf("%s: got status %d code %q", tc.name, out.status, out.env.Code)
		}
		if !strings.Contains(out.env.Message, tc.want) {
			t.Fatalf("%s: message %q missing %q", tc.name, out.env.Message, tc.want)
		}
	}

	// stages must decode from "auto" or an integer, nothing else.
	var spec StagesSpec
	var err error
	if err = json.Unmarshal([]byte(`"all"`), &spec); err == nil {
		t.Fatal("StagesSpec accepted a bogus string")
	}
	if err = json.Unmarshal([]byte(`"auto"`), &spec); err != nil || !spec.Auto {
		t.Fatalf("StagesSpec rejected auto: %v %+v", err, spec)
	}
	if err = json.Unmarshal([]byte(`8`), &spec); err != nil || spec.N != 8 {
		t.Fatalf("StagesSpec rejected an integer: %v %+v", err, spec)
	}
}

// TestPipelineStageWireBytes pins a stage row's /v1 encoding: the keys and
// their order come from the embedded pipeline.StagePlan, its partition
// sequences stay off the wire, and seqs is omitted when empty.
func TestPipelineStageWireBytes(t *testing.T) {
	for _, c := range []struct {
		st   PipelineStage
		want string
	}{
		{PipelineStage{StagePlan: pipeline.StagePlan{StartLayer: 17, Layers: 18, StageTime: 0.125, PeakMemoryBytes: 3.5e10,
			Seqs: []partition.Seq{partition.NewSeq()}}, Seqs: []string{"B,S,D", "B,P2x2"}},
			`{"start_layer":17,"layers":18,"stage_time_s":0.125,"peak_memory_bytes":35000000000,"seqs":["B,S,D","B,P2x2"]}`},
		{PipelineStage{StagePlan: pipeline.StagePlan{Layers: 4, StageTime: 1e-3, PeakMemoryBytes: 1 << 30}},
			`{"start_layer":0,"layers":4,"stage_time_s":0.001,"peak_memory_bytes":1073741824}`},
	} {
		got, err := json.Marshal(c.st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("stage encodes as\n%s\nwant\n%s", got, c.want)
		}
	}
}
