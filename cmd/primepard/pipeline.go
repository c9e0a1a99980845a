// The optional `pipeline` object of /v1/plan: joint spatial-temporal 3D
// planning on the wire. A request carrying `pipeline` runs
// (*pipeline.Optimizer).Plan3D over the server's shared SearchCache instead
// of the plain tensor-parallel search; the response grows a `pipeline`
// section with the chosen (p,d,m), the stage boundaries, per-stage
// strategies, and the 1F1B schedule breakdown. Digest and the top-level
// search stats come from the joint plan, so the smoke's digest diff and the
// /v1/stats counters keep working unchanged.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// StagesSpec is the `pipeline.stages` wire value: a fixed pipeline depth
// (JSON number, power of two ≥ 2) or the string "auto" to let the joint
// planner search depths. Omitted means "auto".
type StagesSpec struct {
	Auto bool
	N    int
}

func (s *StagesSpec) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if len(b) > 0 && b[0] == '"' {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		if str != "auto" {
			return fmt.Errorf(`pipeline.stages must be an integer or "auto", got %q`, str)
		}
		*s = StagesSpec{Auto: true}
		return nil
	}
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return fmt.Errorf(`pipeline.stages must be an integer or "auto"`)
	}
	*s = StagesSpec{N: n}
	return nil
}

func (s StagesSpec) MarshalJSON() ([]byte, error) {
	if s.Auto || s.N == 0 {
		return []byte(`"auto"`), nil
	}
	return []byte(strconv.Itoa(s.N)), nil
}

func (s StagesSpec) String() string {
	if s.Auto || s.N == 0 {
		return "auto"
	}
	return strconv.Itoa(s.N)
}

// PipelineSpec is the `pipeline` request object. Its presence switches the
// plan to the joint spatial-temporal search.
type PipelineSpec struct {
	// Stages pins the pipeline depth p or searches all feasible powers of
	// two ≥ 2 with "auto" (the default when omitted).
	Stages StagesSpec `json:"stages,omitempty"`
	// MicroBatch and GlobalBatch fix the iteration's sequence counts.
	MicroBatch  int `json:"micro_batch"`
	GlobalBatch int `json:"global_batch"`
	// DataParallel pins d (0 searches).
	DataParallel int `json:"data_parallel,omitempty"`
	// System is "primepar" (default) or "megatron".
	System string `json:"system,omitempty"`
}

// validate enforces the spec's own invariants; cluster-dependent feasibility
// (p·d·m = devices) is left to the planner's estimate.
func (ps *PipelineSpec) validate() *apiError {
	if ps.MicroBatch < 1 {
		return badRequest("pipeline.micro_batch must be ≥ 1, got %d", ps.MicroBatch)
	}
	if ps.GlobalBatch < 1 {
		return badRequest("pipeline.global_batch must be ≥ 1, got %d", ps.GlobalBatch)
	}
	if !ps.Stages.Auto && ps.Stages.N != 0 {
		if n := ps.Stages.N; n < 2 || n&(n-1) != 0 {
			return badRequest(`pipeline.stages must be a power of two ≥ 2 or "auto", got %d`, n)
		}
	}
	if d := ps.DataParallel; d != 0 && (d < 1 || d&(d-1) != 0) {
		return badRequest("pipeline.data_parallel must be a power of two, got %d", d)
	}
	if ps.GlobalBatch%ps.MicroBatch != 0 {
		return badRequest("pipeline.global_batch %d not divisible by micro_batch %d", ps.GlobalBatch, ps.MicroBatch)
	}
	if d := ps.DataParallel; d > 0 && ps.GlobalBatch%(d*ps.MicroBatch) != 0 {
		return badRequest("pipeline.global_batch %d not divisible across data_parallel %d × micro_batch %d", ps.GlobalBatch, d, ps.MicroBatch)
	}
	switch ps.System {
	case "", "primepar", "megatron":
	default:
		return badRequest(`pipeline.system must be "primepar" or "megatron", got %q`, ps.System)
	}
	return nil
}

func (ps *PipelineSpec) system() pipeline.System {
	if ps.System == "megatron" {
		return pipeline.Megatron
	}
	return pipeline.PrimePar
}

// key fingerprints a spec for the singleflight key.
func (ps *PipelineSpec) key() string {
	return fmt.Sprintf("stages=%s,d=%d,mb=%d,gb=%d,sys=%s",
		ps.Stages, ps.DataParallel, ps.MicroBatch, ps.GlobalBatch, ps.system())
}

// PipelineStage is one stage of the joint plan on the wire: the stage's
// layer slice, micro-batch time and simulated peak memory (1F1B activation
// stash included) as pipeline.StagePlan encodes them, then the strategy.
type PipelineStage struct {
	pipeline.StagePlan
	// Seqs is the stage's per-op partition sequence in the paper's 𝒫
	// notation, one entry per block op.
	Seqs []string `json:"seqs,omitempty"`
}

// PipelinePlan is the `pipeline` section of a PlanResponse: the request spec
// echoed back, the chosen configuration, the stage cut, and the schedule
// breakdown.
type PipelinePlan struct {
	Requested     PipelineSpec `json:"requested"`
	System        string       `json:"system"`
	Stages        int          `json:"stages"`
	DataParallel  int          `json:"data_parallel"`
	ModelParallel int          `json:"model_parallel"`
	MicroBatch    int          `json:"micro_batch"`
	GlobalBatch   int          `json:"global_batch"`
	Microbatches  int          `json:"microbatches"`
	// StageLayers is the chosen cut (uniform ⌈L/p⌉ or an uneven frontier
	// composition), in pipeline order.
	StageLayers []int           `json:"stage_layers"`
	StagePlans  []PipelineStage `json:"stage_plans"`
	IterationS  float64         `json:"iteration_s"`
	Throughput  float64         `json:"throughput_tokens_per_s"`
	// PeakMemoryBytes is the worst per-device memory over stages.
	PeakMemoryBytes float64                    `json:"peak_memory_bytes"`
	Breakdown       pipeline.ScheduleBreakdown `json:"breakdown"`
	Stats           pipeline.Plan3DStats       `json:"stats"`
}

// pipelinePlanOf shapes a joint plan for the wire. The graph supplies the
// axis names the partition sequences are rendered with (names do not depend
// on batch, so the core request's block graph serves for any micro-batch).
func pipelinePlanOf(spec PipelineSpec, p3 *pipeline.Plan3D, g *graph.Graph) *PipelinePlan {
	stages := make([]PipelineStage, len(p3.Stages))
	for i, st := range p3.Stages {
		ws := PipelineStage{StagePlan: st}
		if len(st.Seqs) == len(g.Nodes) {
			ws.Seqs = make([]string, len(st.Seqs))
			for j, seq := range st.Seqs {
				ws.Seqs[j] = seq.Format(g.Nodes[j].AxisNames())
			}
		}
		stages[i] = ws
	}
	return &PipelinePlan{
		Requested:       spec,
		System:          p3.System.String(),
		Stages:          p3.Config.P,
		DataParallel:    p3.Config.D,
		ModelParallel:   p3.Config.M,
		MicroBatch:      p3.Config.Microbatch,
		GlobalBatch:     p3.Config.GlobalBatch,
		Microbatches:    p3.Config.Microbatches(),
		StageLayers:     p3.StageLayers(),
		StagePlans:      stages,
		IterationS:      p3.IterationTime,
		Throughput:      p3.Throughput,
		PeakMemoryBytes: p3.PeakMemoryBytes,
		Breakdown:       p3.Breakdown,
		Stats:           p3.Stats,
	}
}
