// Joint spatial-temporal 3D planning (paper §4.4 direction; ROADMAP
// "pipeline co-optimization"): instead of grid-searching (p, d, m) around
// independently optimized uniform stages, Plan3D chooses stage boundaries
// and per-stage tensor partitions together.
//
// The search is layered, Galvatron-style:
//
//  1. Outer grid over (p, d, m), pruned by a monotone compute lower bound —
//     every layer must run its FLOPs on an m-device SPMD group, so
//     max(L, nMB·⌈L/p⌉)·lb(m) ≥ iteration time; configurations whose bound
//     already loses to the incumbent are skipped without any search.
//  2. Per configuration, core.EnumerateStageCuts runs a dominated-cut
//     Pareto DP over stage compositions within a window around the balanced
//     cut. Each distinct (m, ℓ) stage is ONE tensor-parallel sub-search,
//     memoized in-call and served warm across calls by the α-keyed
//     cross-call table tier (a layer-count change re-runs only stacking).
//  3. Surviving cuts are scored exactly by the event-driven 1F1B simulator
//     (Simulate1F1BStages) in both orientations; a second lower bound
//     (max(Σ t_s, nMB·max t_s) + allreduce) skips cuts the incumbent
//     already beats.
//
// The legacy uniform-⌈L/p⌉ schedule of every configuration is always among
// the candidates and is evaluated with bit-identical arithmetic, so the
// joint answer is never worse than the (p,d,m) grid over per-stage-optimal
// plans (TestJointNeverWorseThanGrid). The (sum, max) dominance is exact
// for the lower bound but heuristic for the simulated makespan — a
// dominated cut's schedule is not provably worse, it is just bound below by
// a kept cut's bound; DESIGN.md §5.10 quantifies the honest effect.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Optimizer is the ctx-first entry point for 3D planning, mirroring
// core.Optimizer: construct once per cluster, share across requests.
type Optimizer struct {
	Cluster *device.Cluster
	// Cache persists the per-stage tensor-parallel search intermediates
	// ACROSS Plan3D calls and with plain core.Plan calls on any sub-cluster
	// (stage sub-clusters get disjoint keys via the env signature).
	// NewOptimizer attaches core.DefaultSearchCache; set a private
	// core.NewSearchCache (or nil) to isolate.
	Cache *core.SearchCache
	// CutWindow widens the joint planner's per-stage layer range to
	// ⌊L/p⌋−CutWindow .. ⌈L/p⌉+CutWindow (clamped to ≥ 1 layer). Each extra
	// distinct count is one more memoized sub-search; the default 1 already
	// covers every near-balanced composition. Negative disables uneven cuts
	// (grid parity mode).
	CutWindow int
	// Alpha overrides the Eq. 7 latency↔memory weight of every per-stage
	// tensor-parallel sub-search; nil keeps the cost model's default. The
	// cross-call cache keys on α, so two optimizers with different weights
	// never share stage sub-plans.
	Alpha *float64
}

// NewOptimizer returns a 3D planner over the full cluster with defaults.
func NewOptimizer(cluster *device.Cluster) *Optimizer {
	return &Optimizer{Cluster: cluster, Cache: core.DefaultSearchCache, CutWindow: 1}
}

// Plan3DRequest describes one joint planning call.
type Plan3DRequest struct {
	// Model is the transformer configuration (batch fields overridden by
	// Microbatch below).
	Model model.Config
	// System selects the per-stage tensor-parallel strategy generator.
	System System
	// GlobalBatch and Microbatch fix the iteration's sequence counts
	// (required unless Config is set).
	GlobalBatch int
	Microbatch  int
	// Stages pins the pipeline depth p (0 searches all feasible powers of
	// two ≥ 2, the Fig. 10 sweep).
	Stages int
	// DataParallel pins d (0 searches).
	DataParallel int
	// Config, when non-nil, evaluates exactly this (p,d,m) grid point with
	// p uniform ⌈L/p⌉-layer stages, the paper's Fig. 10 protocol.
	// GlobalBatch/Microbatch/Stages/DataParallel are taken from it and the
	// joint cut search is skipped.
	Config *Config3D
}

// StagePlan is one pipeline stage of a 3D plan.
type StagePlan struct {
	// StartLayer and Layers delimit the stage's contiguous layer slice
	// [StartLayer, StartLayer+Layers). Under the legacy uniform protocol
	// (Plan3DRequest.Config) every stage nominally holds ⌈L/p⌉ layers, so
	// the boundaries can overrun the model when p ∤ L — joint cuts always
	// sum exactly to the model's layer count.
	StartLayer int             `json:"start_layer"`
	Layers     int             `json:"layers"`
	Seqs       []partition.Seq `json:"-"`
	// StageTime is one micro-batch through this stage (fwd+bwd+grad),
	// inter-stage hand-off excluded.
	StageTime float64 `json:"stage_time_s"`
	// PeakMemoryBytes includes the 1F1B activation stash at this stage's
	// pipeline depth (min(p−s, nMB)−1 extra in-flight micro-batches).
	PeakMemoryBytes float64 `json:"peak_memory_bytes"`
}

// ScheduleBreakdown decomposes the simulated iteration time.
type ScheduleBreakdown struct {
	// Warmup/Steady/Drain split the 1F1B makespan (Schedule.Breakdown).
	Warmup float64 `json:"warmup_s"`
	Steady float64 `json:"steady_s"`
	Drain  float64 `json:"drain_s"`
	// P2P is the per-micro-batch inter-stage hand-off folded into each
	// stage's forward and backward halves.
	P2P float64 `json:"p2p_s"`
	// AllReduce is the per-iteration data-parallel gradient all-reduce
	// appended after the flush (max over stages for uneven cuts).
	AllReduce float64 `json:"allreduce_s"`
	// BubbleFraction is the average stage idle share of the makespan.
	BubbleFraction float64 `json:"bubble_fraction"`
}

// Plan3DStats instruments one Plan3D call.
type Plan3DStats struct {
	// ConfigsConsidered counts (p,d,m) grid points examined;
	// ConfigsPruned counts those the compute lower bound eliminated before
	// any per-stage search.
	ConfigsConsidered int `json:"configs_considered"`
	ConfigsPruned     int `json:"configs_pruned"`
	// CutsEnumerated / CutsDominated report the Pareto cut DP
	// (core.CutStats) summed over configurations; CutsBoundSkipped counts
	// frontier cuts whose exact lower bound lost to the incumbent before
	// simulation.
	CutsEnumerated   int `json:"cuts_enumerated"`
	CutsDominated    int `json:"cuts_dominated"`
	CutsBoundSkipped int `json:"cuts_bound_skipped"`
	// SchedulesSimulated counts 1F1B event simulations run.
	SchedulesSimulated int `json:"schedules_simulated"`
	// StagePlans counts distinct (m, layers) tensor-parallel sub-searches
	// actually performed (the memo key space; cross-call cache hits inside
	// each are reported in Search).
	StagePlans int `json:"stage_plans"`
	// Search aggregates the core search stats over all sub-searches.
	Search core.SearchStats `json:"search"`
	// Elapsed is the whole Plan3D wall time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Plan3D is the result of a joint 3D planning call.
type Plan3D struct {
	System System
	Config Config3D
	// Stages holds the chosen cut and per-stage strategies, in pipeline
	// order.
	Stages []StagePlan
	// IterationTime is the simulated 1F1B makespan plus the data-parallel
	// all-reduce; Throughput is GlobalBatch·SeqLen / IterationTime.
	IterationTime float64
	Throughput    float64
	// PeakMemoryBytes is the worst per-device memory over stages.
	PeakMemoryBytes float64
	Breakdown       ScheduleBreakdown
	Stats           Plan3DStats
}

// StageLayers returns the chosen cut as a per-stage layer-count vector.
func (p *Plan3D) StageLayers() []int {
	out := make([]int, len(p.Stages))
	for i, s := range p.Stages {
		out[i] = s.Layers
	}
	return out
}

// Result renders the plan as one grid-point summary: stage 0's strategy and
// per-micro-batch time stand in for the (historically uniform) stage.
func (p *Plan3D) Result() *Result {
	return &Result{
		System:          p.System,
		Config:          p.Config,
		IterationTime:   p.IterationTime,
		Throughput:      p.Throughput,
		StageTime:       p.Stages[0].StageTime,
		BubbleFraction:  p.Breakdown.BubbleFraction,
		PeakMemoryBytes: p.PeakMemoryBytes,
		Seqs:            p.Stages[0].Seqs,
	}
}

// Digest fingerprints the plan — configuration, stage boundaries, per-stage
// strategies and the exact iteration-time bits — in the style of
// experiments.StrategyDigest. CI pins these for the plan3d curve and the
// daemon smoke asserts stability across identical requests.
func (p *Plan3D) Digest() string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(p.System.String()))
	for _, v := range []int{p.Config.P, p.Config.D, p.Config.M, p.Config.Microbatch, p.Config.GlobalBatch} {
		w64(uint64(v))
	}
	for _, st := range p.Stages {
		w64(uint64(st.StartLayer))
		w64(uint64(st.Layers))
		for _, seq := range st.Seqs {
			k := seq.Key()
			w64(uint64(len(k)))
			h.Write([]byte(k))
		}
		w64(math.Float64bits(st.StageTime))
	}
	w64(math.Float64bits(p.IterationTime))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Plan3D runs the joint search (or, with req.Config set, the legacy
// fixed-configuration evaluation) on the optimizer's cluster. Cancellation
// is honored between configurations and inside every per-stage tensor
// search; results are deterministic and independent of cache state.
func (o *Optimizer) Plan3D(ctx context.Context, req Plan3DRequest) (*Plan3D, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Cluster == nil {
		return nil, fmt.Errorf("pipeline: Optimizer.Cluster is nil")
	}
	start := time.Now()
	if req.Config != nil {
		return o.planFixed(ctx, req, start)
	}
	return o.planAuto(ctx, req, start)
}

// coreOptimizer builds the per-stage tensor-parallel searcher on a stage
// sub-cluster, sharing this optimizer's cross-call cache. The batch axis
// stays unsplit: d is controlled externally (paper §6.4 protocol).
func (o *Optimizer) coreOptimizer(sub *device.Cluster) *core.Optimizer {
	m := cost.NewModel(sub)
	if o.Alpha != nil {
		m.Alpha = *o.Alpha
	}
	co := core.NewOptimizer(m)
	co.Cache = o.Cache
	co.Opts.AllowBatchSplit = false
	return co
}

// stageSeqs picks the stage's tensor-parallel strategy under the system.
func (o *Optimizer) stageSeqs(ctx context.Context, g *graph.Graph, sub *device.Cluster, layers int, system System) ([]partition.Seq, core.SearchStats, error) {
	switch system {
	case Megatron:
		seqs, err := baseline.Megatron(g, sub.Bits(), 0)
		return seqs, core.SearchStats{}, err
	case PrimePar:
		strat, err := o.coreOptimizer(sub).Plan(ctx, core.PlanRequest{Graph: g, Layers: layers})
		if err != nil {
			return nil, core.SearchStats{}, err
		}
		return strat.Seqs, strat.Stats, nil
	default:
		return nil, core.SearchStats{}, fmt.Errorf("pipeline: unknown system %d", system)
	}
}

// stageEval is one memoized (m, layers) stage sub-plan: strategy, simulated
// per-micro-batch time, memory and the stage's weight bytes (for the
// data-parallel all-reduce).
type stageEval struct {
	seqs   []partition.Seq
	time   float64
	mem    float64
	stash  float64
	wBytes float64
}

type stageKey struct{ m, layers int }

// evalStage runs (or recalls) the tensor-parallel sub-search and simulation
// for an ℓ-layer stage on an m-device group.
func (o *Optimizer) evalStage(ctx context.Context, g *graph.Graph, m, layers int, system System, memo map[stageKey]*stageEval, stats *Plan3DStats) (*stageEval, error) {
	key := stageKey{m: m, layers: layers}
	if ev, ok := memo[key]; ok {
		return ev, nil
	}
	full := o.Cluster
	sub := stageCluster(full, m)
	seqs, sstats, err := o.stageSeqs(ctx, g, sub, layers, system)
	if err != nil {
		return nil, err
	}
	rep, err := sim.New(sub).Run(g, seqs, layers)
	if err != nil {
		return nil, err
	}
	eb := full.Profile.ElementBytes
	wBytes := 0.0
	for i, op := range g.Nodes {
		for ti, t := range op.Tensors {
			if t.Kind == graph.Weight {
				wBytes += cost.BlockElems(op, seqs[i], ti) * eb
			}
		}
	}
	ev := &stageEval{
		seqs:   seqs,
		time:   rep.IterationTime,
		mem:    rep.PeakMemoryBytes,
		stash:  stashOf(g, seqs, layers, eb),
		wBytes: wBytes * float64(layers),
	}
	memo[key] = ev
	stats.StagePlans++
	addSearchStats(&stats.Search, sstats)
	return ev, nil
}

// p2pTime is the per-micro-batch inter-stage activation hand-off (both
// directions; the boundary tensor [mb, S, D] is spread over the m devices).
func p2pTime(cfg model.Config, full *device.Cluster, c3 Config3D) float64 {
	if c3.P <= 1 {
		return 0
	}
	eb := full.Profile.ElementBytes
	bytesPerDevice := float64(c3.Microbatch) * float64(cfg.SeqLen) * float64(cfg.Hidden) * eb / float64(c3.M)
	bw, lat := full.InterLink()
	if full.NumNodes() == 1 {
		bw, lat = full.IntraLink()
	}
	return 2 * (bytesPerDevice/bw + lat)
}

// dpARTime is the per-iteration data-parallel gradient all-reduce of wBytes
// stage weights: ring across the d replicas inside the stage's d·m device
// sub-cluster. The DP group indicator is the sub-cluster's leading log2(d)
// bits; the indicator machinery accounts for the m tensor-parallel ranks
// per node sharing the NIC concurrently — which is what makes data
// parallelism expensive for 100B+ models (the paper's §6.4 observation).
func dpARTime(full *device.Cluster, d, m int, wBytes float64) float64 {
	if d <= 1 {
		return 0
	}
	sub := stageCluster(full, m)
	stageAll := stageCluster(full, d*m)
	var dpInd device.Indicator
	for bit := 1; bit <= stageAll.Bits()-sub.Bits(); bit++ {
		dpInd = append(dpInd, bit)
	}
	return stageAll.AllReduceTime(dpInd, wBytes)
}

// planFixed is the grid evaluation protocol behind Plan3DRequest.Config:
// p uniform ⌈L/p⌉-layer stages, arithmetic bit-identical to the
// pre-joint-search evaluator (pinned by TestPlan3DFixedMatchesLegacyGoldens).
func (o *Optimizer) planFixed(ctx context.Context, req Plan3DRequest, start time.Time) (*Plan3D, error) {
	cfg := req.Model
	full := o.Cluster
	c3 := *req.Config
	if err := c3.Validate(full.NumDevices, cfg.Layers); err != nil {
		return nil, err
	}
	g, err := model.BuildBlock(cfg.WithBatch(c3.Microbatch))
	if err != nil {
		return nil, err
	}
	layersPerStage := (cfg.Layers + c3.P - 1) / c3.P

	var stats Plan3DStats
	stats.ConfigsConsidered = 1
	memo := make(map[stageKey]*stageEval, 1)
	ev, err := o.evalStage(ctx, g, c3.M, layersPerStage, req.System, memo, &stats)
	if err != nil {
		return nil, err
	}

	nMB := c3.Microbatches()
	p2p := p2pTime(cfg, full, c3)
	dpAR := dpARTime(full, c3.D, c3.M, ev.wBytes)

	// Event-driven 1F1B schedule: split the simulated stage time into its
	// forward and backward+gradient parts (1:2 by FLOPs) and lay out the
	// exact per-stage timeline with inter-stage hand-off latency.
	fwd := ev.time / 3
	bwd := ev.time - fwd
	sched, err := Simulate1F1B(c3.P, nMB, fwd+p2p/2, bwd+p2p/2, 0)
	if err != nil {
		return nil, err
	}
	stats.SchedulesSimulated = 1
	cut := make([]int, c3.P)
	for s := range cut {
		cut[s] = layersPerStage
	}
	p3 := o.assemble(cfg, c3, req.System, cut, memo, sched, p2p, dpAR)
	stats.Elapsed = time.Since(start)
	p3.Stats = stats
	return p3, nil
}

// assemble builds the Plan3D result for a chosen cut and simulated schedule.
func (o *Optimizer) assemble(cfg model.Config, c3 Config3D, system System, cut []int, memo map[stageKey]*stageEval, sched *Schedule, p2p, dpAR float64) *Plan3D {
	nMB := c3.Microbatches()
	total := sched.Makespan + dpAR
	tokens := float64(c3.GlobalBatch) * float64(cfg.SeqLen)

	stages := make([]StagePlan, len(cut))
	startLayer := 0
	peak := 0.0
	for s, l := range cut {
		ev := memo[stageKey{m: c3.M, layers: l}]
		// Peak memory: weights resident once; activation stashes for the
		// 1F1B in-flight depth at this stage (p−s at stage s, capped by the
		// micro-batch count).
		inflight := len(cut) - s
		if nMB < inflight {
			inflight = nMB
		}
		mem := ev.mem + float64(inflight-1)*ev.stash
		if mem > peak {
			peak = mem
		}
		stages[s] = StagePlan{
			StartLayer:      startLayer,
			Layers:          l,
			Seqs:            ev.seqs,
			StageTime:       ev.time,
			PeakMemoryBytes: mem,
		}
		startLayer += l
	}

	warm, steady, drain := sched.Breakdown()
	return &Plan3D{
		System:          system,
		Config:          c3,
		Stages:          stages,
		IterationTime:   total,
		Throughput:      tokens / total,
		PeakMemoryBytes: peak,
		Breakdown: ScheduleBreakdown{
			Warmup:         warm,
			Steady:         steady,
			Drain:          drain,
			P2P:            p2p,
			AllReduce:      dpAR,
			BubbleFraction: sched.BubbleFraction,
		},
	}
}

// compLowerBound bounds the per-micro-batch time of ONE layer on an
// m-device tensor-parallel group from below: every applicable phase of
// every op must execute its FLOPs somewhere, the group is SPMD
// (slowest-member steps), and no partition gives a device less than 1/m of
// a phase's work — so time ≥ Σ_phases flops / (m · best-class FLOPs).
// Communication, memory-bound terms and kernel overheads only add to it.
func compLowerBound(g *graph.Graph, full *device.Cluster, m int) float64 {
	peak := full.Profile.FLOPs
	for _, c := range full.Profile.Classes {
		if c.FLOPs > peak {
			peak = c.FLOPs
		}
	}
	var fl float64
	for _, op := range g.Nodes {
		for _, ph := range partition.Phases {
			if cost.PhaseApplicable(op, ph) {
				fl += op.Flops()
			}
		}
	}
	return fl / (float64(m) * peak)
}

// planAuto is the joint search over configurations and stage cuts.
func (o *Optimizer) planAuto(ctx context.Context, req Plan3DRequest, start time.Time) (*Plan3D, error) {
	cfg := req.Model
	full := o.Cluster
	if req.GlobalBatch < 1 || req.Microbatch < 1 {
		return nil, fmt.Errorf("pipeline: Plan3D needs GlobalBatch ≥ 1 and Microbatch ≥ 1, got %d/%d", req.GlobalBatch, req.Microbatch)
	}
	if v := req.Stages; v != 0 && (v < 1 || v&(v-1) != 0) {
		return nil, fmt.Errorf("pipeline: stages must be a power of two, got %d", v)
	}
	if v := req.DataParallel; v != 0 && (v < 1 || v&(v-1) != 0) {
		return nil, fmt.Errorf("pipeline: data_parallel must be a power of two, got %d", v)
	}
	if req.Stages == 1 {
		return nil, fmt.Errorf("pipeline: stages must be ≥ 2 (pure data/tensor parallelism has no pipeline)")
	}
	configs := AllConfigs(full.NumDevices, cfg.Layers, req.GlobalBatch, req.Microbatch)
	if req.Stages > 0 || req.DataParallel > 0 {
		kept := configs[:0]
		for _, c := range configs {
			if (req.Stages == 0 || c.P == req.Stages) && (req.DataParallel == 0 || c.D == req.DataParallel) {
				kept = append(kept, c)
			}
		}
		configs = kept
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("pipeline: no feasible (p,d,m) configuration for %d devices, %d layers, global batch %d, microbatch %d (stages=%d, data_parallel=%d)",
			full.NumDevices, cfg.Layers, req.GlobalBatch, req.Microbatch, req.Stages, req.DataParallel)
	}
	g, err := model.BuildBlock(cfg.WithBatch(req.Microbatch))
	if err != nil {
		return nil, err
	}

	stats := &Plan3DStats{}
	memo := make(map[stageKey]*stageEval)
	lbPerM := make(map[int]float64)
	var best *Plan3D
	incumbent := math.Inf(1)
	var lastErr error
	for _, c3 := range configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.ConfigsConsidered++
		lb1, ok := lbPerM[c3.M]
		if !ok {
			lb1 = compLowerBound(g, full, c3.M)
			lbPerM[c3.M] = lb1
		}
		nMB := c3.Microbatches()
		ceilL := (cfg.Layers + c3.P - 1) / c3.P
		if lb := math.Max(float64(cfg.Layers), float64(nMB)*float64(ceilL)) * lb1; lb >= incumbent {
			stats.ConfigsPruned++
			continue
		}
		cand, err := o.planConfig(ctx, req, g, c3, memo, stats, incumbent)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err // an infeasible configuration sheds itself, like the legacy grid
			continue
		}
		if cand != nil && cand.IterationTime < incumbent {
			incumbent = cand.IterationTime
			best = cand
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, fmt.Errorf("pipeline: all configurations failed: %w", lastErr)
		}
		return nil, fmt.Errorf("pipeline: all configurations pruned without an incumbent")
	}
	stats.Elapsed = time.Since(start)
	best.Stats = *stats
	return best, nil
}

// planConfig searches the stage cuts of one (p,d,m) configuration and
// returns its best plan (nil if every cut lost to the incumbent bound).
func (o *Optimizer) planConfig(ctx context.Context, req Plan3DRequest, g *graph.Graph, c3 Config3D, memo map[stageKey]*stageEval, stats *Plan3DStats, incumbent float64) (*Plan3D, error) {
	cfg := req.Model
	full := o.Cluster
	L := cfg.Layers
	p := c3.P
	nMB := c3.Microbatches()
	ceilL := (L + p - 1) / p

	minPer := L/p - o.CutWindow
	if minPer < 1 {
		minPer = 1
	}
	maxPer := ceilL + o.CutWindow
	if maxPer > L-(p-1)*minPer {
		maxPer = L - (p-1)*minPer
	}
	if o.CutWindow < 0 || minPer > maxPer {
		minPer, maxPer = ceilL, ceilL // grid parity: only the legacy uniform stage
	}
	if maxPer < ceilL {
		maxPer = ceilL // the legacy uniform stage is always evaluable
	}

	// Pre-run every sub-plan the window can ask for; the memo makes
	// repeats free and the cross-call table tier makes layer-count
	// neighbours warm (only stacking re-runs).
	for l := minPer; l <= maxPer; l++ {
		if _, err := o.evalStage(ctx, g, c3.M, l, req.System, memo, stats); err != nil {
			return nil, err
		}
	}
	p2p := p2pTime(cfg, full, c3)
	evalOf := func(l int) *stageEval { return memo[stageKey{m: c3.M, layers: l}] }

	// Candidate cuts: the uniform ⌈L/p⌉ grid protocol first (bit-identical
	// to planFixed — the never-worse-than-grid anchor), then both
	// orientations of the Pareto frontier over true compositions.
	legacy := make([]int, p)
	for s := range legacy {
		legacy[s] = ceilL
	}
	candidates := [][]int{legacy}
	if o.CutWindow >= 0 && p <= L {
		cuts, cstats, err := core.EnumerateStageCuts(L, p, minPer, maxPer, func(l int) float64 {
			return evalOf(l).time + p2p
		})
		if err == nil {
			stats.CutsEnumerated += cstats.CutsKept
			stats.CutsDominated += cstats.CutsDominated
			seen := map[string]bool{fmt.Sprint(legacy): true}
			for _, cut := range cuts {
				fwdKey := fmt.Sprint(cut.Layers)
				if !seen[fwdKey] {
					seen[fwdKey] = true
					candidates = append(candidates, cut.Layers)
				}
				rev := make([]int, p)
				for i, l := range cut.Layers {
					rev[p-1-i] = l
				}
				revKey := fmt.Sprint(rev)
				if !seen[revKey] {
					seen[revKey] = true
					candidates = append(candidates, rev)
				}
			}
		}
		// Enumeration can fail only on an infeasible window (e.g. p > L
		// already filtered); the legacy candidate still stands.
	}

	var best *Plan3D
	bestTotal := incumbent
	for _, cut := range candidates {
		// Exact per-stage totals → cut-level lower bound: the micro-batch-0
		// critical path Σ(t_s+p2p) and the bottleneck serialization
		// nMB·max(t_s+p2p), plus the all-reduce tail.
		sum := 0.0
		maxT := 0.0
		fwds := make([]float64, p)
		bwds := make([]float64, p)
		dpAR := 0.0
		for s, l := range cut {
			ev := evalOf(l)
			t := ev.time + p2p
			sum += t
			if t > maxT {
				maxT = t
			}
			f := ev.time / 3
			fwds[s] = f + p2p/2
			bwds[s] = (ev.time - f) + p2p/2
			if ar := dpARTime(full, c3.D, c3.M, ev.wBytes); ar > dpAR {
				dpAR = ar
			}
		}
		if lb := math.Max(sum, float64(nMB)*maxT) + dpAR; lb >= bestTotal {
			stats.CutsBoundSkipped++
			continue
		}
		sched, err := Simulate1F1BStages(fwds, bwds, nMB, 0)
		if err != nil {
			return nil, err
		}
		stats.SchedulesSimulated++
		if total := sched.Makespan + dpAR; total < bestTotal {
			bestTotal = total
			best = o.assemble(cfg, c3, req.System, cut, memo, sched, p2p, dpAR)
		}
	}
	return best, nil
}

// addSearchStats accumulates one sub-search's core stats into the call
// aggregate (counters summed; Workers keeps the max).
func addSearchStats(dst *core.SearchStats, s core.SearchStats) {
	if s.Workers > dst.Workers {
		dst.Workers = s.Workers
	}
	dst.NodeEvals += s.NodeEvals
	dst.NodeCacheHits += s.NodeCacheHits
	dst.CandidatesEvaluated += s.CandidatesEvaluated
	dst.EdgeMatsBuilt += s.EdgeMatsBuilt
	dst.EdgeCacheHits += s.EdgeCacheHits
	dst.EdgeCellsEvaluated += s.EdgeCellsEvaluated
	dst.CandsTotal += s.CandsTotal
	dst.DPRowClasses += s.DPRowClasses
	dst.DPTreeMerges += s.DPTreeMerges
	dst.SegTablesBuilt += s.SegTablesBuilt
	dst.CrossCallTableHits += s.CrossCallTableHits
	dst.EntriesScanned += s.EntriesScanned
	dst.CrossCallNodeHits += s.CrossCallNodeHits
	dst.CrossCallEdgeHits += s.CrossCallEdgeHits
	dst.NodeEvalTime += s.NodeEvalTime
	dst.EdgeMatTime += s.EdgeMatTime
	dst.DPTime += s.DPTime
	dst.StackTime += s.StackTime
	dst.TotalTime += s.TotalTime
}

// EstimatePlan3D predicts the search work of Plan3D(req) against the
// current cache state, for admission control: one core.EstimatePlan per
// distinct tensor-parallel sub-cluster the grid will touch (at its largest
// stacked layer count), summed. Warm means every sub-search is warm.
// Megatron needs no search, so its estimate is the per-configuration
// simulation work only.
func (o *Optimizer) EstimatePlan3D(req Plan3DRequest) (core.SearchEstimate, error) {
	cfg := req.Model
	full := o.Cluster
	var configs []Config3D
	if req.Config != nil {
		if err := req.Config.Validate(full.NumDevices, cfg.Layers); err != nil {
			return core.SearchEstimate{}, err
		}
		configs = []Config3D{*req.Config}
	} else {
		configs = AllConfigs(full.NumDevices, cfg.Layers, req.GlobalBatch, req.Microbatch)
		kept := configs[:0]
		for _, c := range configs {
			if (req.Stages == 0 || c.P == req.Stages) && (req.DataParallel == 0 || c.D == req.DataParallel) {
				kept = append(kept, c)
			}
		}
		configs = kept
	}
	if len(configs) == 0 {
		return core.SearchEstimate{}, fmt.Errorf("pipeline: no feasible (p,d,m) configuration")
	}
	mb := req.Microbatch
	if req.Config != nil {
		mb = req.Config.Microbatch
	}
	g, err := model.BuildBlock(cfg.WithBatch(mb))
	if err != nil {
		return core.SearchEstimate{}, err
	}
	// Deepest stacking per m across the grid (the estimate's Layers input).
	maxLayers := map[int]int{}
	for _, c := range configs {
		l := (cfg.Layers + c.P - 1) / c.P
		if l > maxLayers[c.M] {
			maxLayers[c.M] = l
		}
	}
	total := core.SearchEstimate{Warm: true}
	if req.System != PrimePar {
		total.Work = float64(len(configs))
		return total, nil
	}
	ms := make([]int, 0, len(maxLayers))
	for m := range maxLayers {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	for _, m := range ms {
		est, err := o.coreOptimizer(stageCluster(full, m)).EstimatePlan(core.PlanRequest{Graph: g, Layers: maxLayers[m]})
		if err != nil {
			return core.SearchEstimate{}, err
		}
		total.Work += est.Work
		total.Warm = total.Warm && est.Warm
		total.NodeEvals += est.NodeEvals
		total.CandidatesEvaluated += est.CandidatesEvaluated
		total.EdgeBuilds += est.EdgeBuilds
		total.EdgeCells += est.EdgeCells
		total.SegTables += est.SegTables
		total.SegTableHits += est.SegTableHits
		if est.ProbeBeam > total.ProbeBeam {
			total.ProbeBeam = est.ProbeBeam
		}
	}
	return total, nil
}
