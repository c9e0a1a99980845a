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
//  2. A stage pass first runs ONE tensor-parallel sub-search per distinct
//     stage width m, served warm across calls by the α-keyed cross-call
//     plan tier. A core.Plan answer is one periodic layer whatever the
//     layer count, so every ℓ-layer stage of width m runs the same
//     strategy; the widths share no cache keys, and their searches run
//     concurrently on the core worker pool. The scoring pass then walks
//     the configurations: per configuration, core.EnumerateStageCuts runs a
//     dominated-cut Pareto DP over stage compositions within the window
//     (cutWindow layers around the balanced cut), and each ℓ-layer stage's
//     simulation replays the one sim.Prepared its width keeps for the call.
//  3. Surviving cuts are scored exactly by the event-driven 1F1B simulator
//     (Simulate1F1BStages) in both orientations; a second lower bound
//     (max(Σ t_s, nMB·max t_s) + allreduce) skips cuts the incumbent
//     already beats.
//
// The legacy uniform-⌈L/p⌉ schedule of every configuration is always among
// the candidates, so the joint answer is never worse than the (p,d,m) grid
// over per-stage-optimal plans (TestJointNeverWorseThanGrid). A fixed
// Plan3DRequest.Config is the same loop over a one-configuration grid whose
// only candidate is that uniform schedule; testdata/legacy_eval.json pins it
// bit for bit to the pre-joint evaluator. The (sum, max) dominance is exact
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
	"slices"
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
	// core.NewSearchCache to isolate. nil isolates each stage search: every
	// one gets an empty cache of its own.
	Cache *core.SearchCache
	// Alpha overrides the Eq. 7 latency↔memory weight of every per-stage
	// tensor-parallel sub-search; nil keeps the cost model's default. The
	// cross-call cache keys on α, so two optimizers with different weights
	// never share stage sub-plans.
	Alpha *float64
}

// cutWindow widens the joint planner's per-stage layer range to
// ⌊L/p⌋−cutWindow .. ⌈L/p⌉+cutWindow (clamped to ≥ 1 layer). Each extra
// distinct count is one more stage simulation; 1 already covers every
// near-balanced composition.
const cutWindow = 1

// NewOptimizer returns a 3D planner over the full cluster with defaults.
func NewOptimizer(cluster *device.Cluster) *Optimizer {
	return &Optimizer{Cluster: cluster, Cache: core.DefaultSearchCache}
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
	// p uniform ⌈L/p⌉-layer stages, the paper's Fig. 10 protocol: the joint
	// loop runs over this one configuration with the uniform cut as its only
	// candidate. GlobalBatch/Microbatch/Stages/DataParallel are taken from
	// it.
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
	// StagePlans counts the tensor-parallel sub-searches the stage pass
	// performed: one per distinct stage width m, since one periodic layer
	// serves every layer count of a width (cross-call cache hits inside
	// each are reported in Search). The pass runs before the compute bound
	// prunes, so it also counts the widths of configurations the bound
	// later skips.
	StagePlans int `json:"stage_plans"`
	// Search aggregates the core search stats over all sub-searches.
	Search core.SearchStats `json:"search"`
	// Elapsed is the whole Plan3D wall time. The four phase times below
	// are disjoint parts of it: the stage pass's wall time (its per-width
	// tensor-parallel searches run concurrently), the per-stage
	// simulations, the stage-cut enumeration, and scoring the candidate
	// cuts (lower bound, 1F1B simulation, assembly). The configuration grid
	// and graph construction make up the rest.
	Elapsed         time.Duration `json:"elapsed_ns"`
	StageSearchTime time.Duration `json:"stage_search_ns"`
	StageSimTime    time.Duration `json:"stage_sim_ns"`
	CutEnumTime     time.Duration `json:"cut_enum_ns"`
	ScheduleTime    time.Duration `json:"schedule_ns"`
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

// Plan3D runs the joint search — over one configuration's uniform cut when
// req.Config is set — on the optimizer's cluster. Cancellation is honored
// inside every per-stage tensor search and between configurations; results
// are deterministic and independent of cache state and worker count.
func (o *Optimizer) Plan3D(ctx context.Context, req Plan3DRequest) (*Plan3D, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Cluster == nil {
		return nil, fmt.Errorf("pipeline: Optimizer.Cluster is nil")
	}
	start := time.Now()
	configs, mb, err := o.resolve(req)
	if err != nil {
		return nil, err
	}
	g, err := model.BuildBlock(req.Model.WithBatch(mb))
	if err != nil {
		return nil, err
	}

	stats := &Plan3DStats{}
	widths, err := o.searchStages(ctx, req, g, configs, stats)
	if err != nil {
		return nil, err
	}
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
			lb1 = compLowerBound(g, o.Cluster, c3.M)
			lbPerM[c3.M] = lb1
		}
		ceilL := (req.Model.Layers + c3.P - 1) / c3.P
		if lb := math.Max(float64(req.Model.Layers), float64(c3.Microbatches())*float64(ceilL)) * lb1; lb >= incumbent {
			stats.ConfigsPruned++
			continue
		}
		cand, err := o.planConfig(req, g, c3, widths[c3.M], stats, incumbent)
		if err != nil {
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

// resolve turns a request into the (p,d,m) configurations Plan3D evaluates,
// in order, and the micro-batch their stage graphs are built at: the one
// validated req.Config, or the Fig. 10 grid filtered by Stages and
// DataParallel. Plan3D and EstimatePlan3D share it, so both reject a
// request with the same error, a stage wider than core.MaxPlanDevices
// among them.
func (o *Optimizer) resolve(req Plan3DRequest) ([]Config3D, int, error) {
	full := o.Cluster
	L := req.Model.Layers
	if c := req.Config; c != nil {
		if err := c.Validate(full.NumDevices, L); err != nil {
			return nil, 0, err
		}
		return checkStageWidth([]Config3D{*c}, c.Microbatch, full.NumDevices)
	}
	if req.GlobalBatch < 1 || req.Microbatch < 1 {
		return nil, 0, fmt.Errorf("pipeline: Plan3D needs GlobalBatch ≥ 1 and Microbatch ≥ 1, got %d/%d", req.GlobalBatch, req.Microbatch)
	}
	if v := req.Stages; v != 0 && (v < 1 || v&(v-1) != 0) {
		return nil, 0, fmt.Errorf("pipeline: stages must be a power of two, got %d", v)
	}
	if v := req.DataParallel; v != 0 && (v < 1 || v&(v-1) != 0) {
		return nil, 0, fmt.Errorf("pipeline: data_parallel must be a power of two, got %d", v)
	}
	if req.Stages == 1 {
		return nil, 0, fmt.Errorf("pipeline: stages must be ≥ 2 (pure data/tensor parallelism has no pipeline)")
	}
	configs := AllConfigs(full.NumDevices, L, req.GlobalBatch, req.Microbatch)
	kept := configs[:0]
	for _, c := range configs {
		if (req.Stages == 0 || c.P == req.Stages) && (req.DataParallel == 0 || c.D == req.DataParallel) {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return nil, 0, fmt.Errorf("pipeline: no feasible (p,d,m) configuration for %d devices, %d layers, global batch %d, microbatch %d (stages=%d, data_parallel=%d)",
			full.NumDevices, L, req.GlobalBatch, req.Microbatch, req.Stages, req.DataParallel)
	}
	return checkStageWidth(kept, req.Microbatch, full.NumDevices)
}

// checkStageWidth passes resolve's result through unless its widest stage
// is wider than core.MaxPlanDevices, which it rejects under either system,
// before any stage search runs.
func checkStageWidth(kept []Config3D, mb, devices int) ([]Config3D, int, error) {
	widest := 0
	for _, c := range kept {
		widest = max(widest, c.M)
	}
	if widest > core.MaxPlanDevices {
		return nil, 0, fmt.Errorf("pipeline: %w: stages up to %d of %d devices wide, limit %d; pin Stages or DataParallel",
			core.ErrTooManyDevices, widest, devices, core.MaxPlanDevices)
	}
	return kept, mb, nil
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

// stageSeqs picks the stage's tensor-parallel strategy under the system:
// the one layer every layer of a stage on sub runs, whatever its layer
// count.
func (o *Optimizer) stageSeqs(ctx context.Context, g *graph.Graph, sub *device.Cluster, system System) ([]partition.Seq, core.SearchStats, error) {
	switch system {
	case Megatron:
		seqs, err := baseline.Megatron(g, sub.Bits(), 0)
		return seqs, core.SearchStats{}, err
	case PrimePar:
		strat, err := o.coreOptimizer(sub).Plan(ctx, core.PlanRequest{Graph: g, Layers: 1})
		if err != nil {
			return nil, core.SearchStats{}, err
		}
		return strat.Seqs, strat.Stats, nil
	default:
		return nil, core.SearchStats{}, fmt.Errorf("pipeline: unknown system %d", system)
	}
}

// stageEval is one stage width's tensor-parallel sub-plan within a Plan3D
// call. The stage pass records its search: the strategy and stats, or the
// error. The scoring pass prepares the simulator for the strategy once and
// simulates each layer count the first time a configuration asks for it.
type stageEval struct {
	seqs   []partition.Seq
	search core.SearchStats
	err    error
	prep   *sim.Prepared
	sims   map[int]*stageSim
}

// stageSim is one ℓ-layer stage of a width: the per-micro-batch time and
// memory, and the stage's stash and weight bytes (the latter for the
// data-parallel all-reduce).
type stageSim struct {
	time, mem, stash, wBytes float64
}

// stageWindow is the per-stage layer range [lo, hi] configuration c3 asks
// for on an L-layer model: the legacy uniform ⌈L/p⌉ alone for a fixed
// configuration, every size within cutWindow of the balanced cut for the
// joint search.
func stageWindow(L int, c3 Config3D, joint bool) (lo, hi int) {
	p := c3.P
	ceilL := (L + p - 1) / p
	if !joint {
		return ceilL, ceilL
	}
	lo = max(L/p-cutWindow, 1)
	hi = min(ceilL+cutWindow, L-(p-1)*lo)
	if lo > hi {
		return ceilL, ceilL
	}
	return lo, max(hi, ceilL) // the legacy uniform stage is always evaluable
}

// searchStages is the stage pass: it runs one tensor-parallel sub-search
// per distinct stage width m of configs, before the compute bound prunes a
// single configuration. Widths share no cache keys, so their searches run
// concurrently on the core worker pool, widest (slowest) first, each
// core.Plan keeping its own fan-out. One worker or one width (a fixed
// Config) runs the pass inline. A failed search is recorded for the
// configurations of its width; only cancellation ends the pass early.
func (o *Optimizer) searchStages(ctx context.Context, req Plan3DRequest, g *graph.Graph, configs []Config3D, stats *Plan3DStats) (map[int]*stageEval, error) {
	widths := make(map[int]*stageEval)
	var ms []int
	for _, c3 := range configs {
		if widths[c3.M] == nil {
			widths[c3.M] = &stageEval{sims: make(map[int]*stageSim)}
			ms = append(ms, c3.M)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ms)))

	t0 := time.Now()
	err := core.RunTasks(ctx, o.coreOptimizer(o.Cluster).Workers(), len(ms), func(i int) {
		ev := widths[ms[i]]
		ev.seqs, ev.search, ev.err = o.stageSeqs(ctx, g, stageCluster(o.Cluster, ms[i]), req.System)
	})
	stats.StageSearchTime = time.Since(t0)
	if err == nil {
		err = ctx.Err() // an inline pass does not poll after its last task
	}
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		if ev := widths[m]; ev.err == nil {
			stats.StagePlans++
			stats.Search.Add(ev.search)
		}
	}
	return widths, nil
}

// evalStage simulates the ℓ-layer stage of width m the first time a
// configuration asks for it, preparing the width's strategy on its first
// simulation; a width whose search failed returns that error instead.
func (o *Optimizer) evalStage(g *graph.Graph, m, layers int, ev *stageEval, stats *Plan3DStats) error {
	if ev.err != nil || ev.sims[layers] != nil {
		return ev.err
	}
	t0 := time.Now()
	defer func() { stats.StageSimTime += time.Since(t0) }()
	if ev.prep == nil {
		prep, err := sim.New(stageCluster(o.Cluster, m)).Prepare(g, ev.seqs)
		if err != nil {
			return err
		}
		ev.prep = prep
	}
	rep, err := ev.prep.Run(layers)
	if err != nil {
		return err
	}
	ev.sims[layers] = &stageSim{
		time:   rep.IterationTime,
		mem:    rep.PeakMemoryBytes,
		stash:  ev.prep.StashBytes() * float64(layers),
		wBytes: ev.prep.WeightBytes() * float64(layers),
	}
	return nil
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

// assemble builds the Plan3D result for a chosen cut and simulated schedule.
func (o *Optimizer) assemble(cfg model.Config, c3 Config3D, system System, cut []int, ev *stageEval, sched *Schedule, p2p, dpAR float64) *Plan3D {
	nMB := c3.Microbatches()
	total := sched.Makespan + dpAR
	tokens := float64(c3.GlobalBatch) * float64(cfg.SeqLen)

	stages := make([]StagePlan, len(cut))
	startLayer := 0
	peak := 0.0
	for s, l := range cut {
		st := ev.sims[l]
		// Peak memory: weights resident once; activation stashes for the
		// 1F1B in-flight depth at this stage (p−s at stage s, capped by the
		// micro-batch count).
		inflight := len(cut) - s
		if nMB < inflight {
			inflight = nMB
		}
		mem := st.mem + float64(inflight-1)*st.stash
		if mem > peak {
			peak = mem
		}
		stages[s] = StagePlan{
			StartLayer:      startLayer,
			Layers:          l,
			Seqs:            ev.seqs,
			StageTime:       st.time,
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

// planConfig searches the stage cuts of one (p,d,m) configuration and
// returns its best plan (nil if every cut lost to the incumbent bound).
func (o *Optimizer) planConfig(req Plan3DRequest, g *graph.Graph, c3 Config3D, ev *stageEval, stats *Plan3DStats, incumbent float64) (*Plan3D, error) {
	cfg := req.Model
	full := o.Cluster
	L := cfg.Layers
	p := c3.P
	nMB := c3.Microbatches()
	ceilL := (L + p - 1) / p

	// Simulate every stage the window can ask for, in layer order; the
	// stage pass already searched them all.
	joint := req.Config == nil
	minPer, maxPer := stageWindow(L, c3, joint)
	for l := minPer; l <= maxPer; l++ {
		if err := o.evalStage(g, c3.M, l, ev, stats); err != nil {
			return nil, err
		}
	}
	p2p := p2pTime(cfg, full, c3)

	// Candidate cuts: the uniform ⌈L/p⌉ grid protocol first (the whole of a
	// fixed-configuration run, and the joint search's never-worse-than-grid
	// anchor), then both orientations of the Pareto frontier over true
	// compositions.
	t0 := time.Now()
	legacy := make([]int, p)
	for s := range legacy {
		legacy[s] = ceilL
	}
	candidates := [][]int{legacy}
	if joint && p <= L {
		cuts, cstats, err := core.EnumerateStageCuts(L, p, minPer, maxPer, func(l int) float64 {
			return ev.sims[l].time + p2p
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
	t1 := time.Now()
	stats.CutEnumTime += t1.Sub(t0)
	defer func() { stats.ScheduleTime += time.Since(t1) }()

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
			st := ev.sims[l]
			t := st.time + p2p
			sum += t
			if t > maxT {
				maxT = t
			}
			f := st.time / 3
			fwds[s] = f + p2p/2
			bwds[s] = (st.time - f) + p2p/2
			if ar := dpARTime(full, c3.D, c3.M, st.wBytes); ar > dpAR {
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
			best = o.assemble(cfg, c3, req.System, cut, ev, sched, p2p, dpAR)
		}
	}
	return best, nil
}

// EstimatePlan3D predicts the search work of Plan3D(req) against the
// current cache state, for admission control: one core.EstimatePlan per
// distinct tensor-parallel stage width the grid will touch, summed. Warm
// means every sub-search is warm. Megatron needs no search, so its estimate
// is the per-configuration simulation work only.
func (o *Optimizer) EstimatePlan3D(req Plan3DRequest) (core.SearchEstimate, error) {
	full := o.Cluster
	configs, mb, err := o.resolve(req)
	if err != nil {
		return core.SearchEstimate{}, err
	}
	g, err := model.BuildBlock(req.Model.WithBatch(mb))
	if err != nil {
		return core.SearchEstimate{}, err
	}
	total := core.SearchEstimate{Warm: true}
	if req.System != PrimePar {
		total.Work = float64(len(configs))
		return total, nil
	}
	var ms []int
	for _, c := range configs {
		if !slices.Contains(ms, c.M) {
			ms = append(ms, c.M)
		}
	}
	sort.Ints(ms)
	for _, m := range ms {
		est, err := o.coreOptimizer(stageCluster(full, m)).EstimatePlan(core.PlanRequest{Graph: g, Layers: 1})
		if err != nil {
			return core.SearchEstimate{}, err
		}
		total.Work += est.Work
		total.Warm = total.Warm && est.Warm
		total.NodeEvals += est.NodeEvals
		total.CandidatesEvaluated += est.CandidatesEvaluated
		total.EdgeBuilds += est.EdgeBuilds
		total.EdgeCells += est.EdgeCells
	}
	return total, nil
}
