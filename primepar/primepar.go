// Package primepar is the public API of the PrimePar reproduction: given a
// transformer model and a cluster description, it searches the
// spatial-temporal tensor partition space (paper: "PrimePar: Efficient
// Spatial-temporal Tensor Partitioning for Large Transformer Model
// Training", ASPLOS 2024) for the optimal training strategy and simulates
// its execution.
//
// Quick start:
//
//	cluster, _ := primepar.NewCluster(8, 4)
//	plan, _ := primepar.Search(primepar.OPT6B7(), cluster)
//	fmt.Println(plan.Describe())
//	rep, _ := plan.Simulate()
//	fmt.Printf("tokens/s: %.0f\n", rep.Throughput(plan.TokensPerIteration()))
//
// The heavy lifting lives in the internal packages: partition (DSI algebra,
// the P_{2^k×2^k} primitive), core (segmented dynamic programming), cost
// (Eq. 7–10 cost model), sim (discrete-event cluster simulator), runtime
// (numerically-verified SPMD executor), baseline (Megatron-LM / Alpa-style
// comparators) and pipeline (3D parallelism).
//
// The search is exact and its work grows about 15× per doubling of the
// devices, so Search plans at most 64 devices and Plan3D stages at most 64
// devices wide; wider requests return an error before any search runs.
package primepar

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Config describes a transformer model and training workload.
type Config = model.Config

// Cluster describes the machine: 2^n homogeneous devices in nodes.
type Cluster = device.Cluster

// Profile holds hardware latency/bandwidth coefficients.
type Profile = device.Profile

// LinkTier is one level of a switch-fabric hierarchy (Profile.Links).
type LinkTier = device.LinkTier

// ComputeClass is one homogeneous slice of a heterogeneous machine
// (Profile.Classes).
type ComputeClass = device.ComputeClass

// Topology enumerates interconnect shapes (switch, torus-2d).
type Topology = device.Topology

// Seq is a tensor partition sequence 𝒫.
type Seq = partition.Seq

// SearchStats instruments one strategy search: cache effectiveness, work
// volume and wall time per DP stage (see internal/core.SearchStats).
type SearchStats = core.SearchStats

// WorkersEnv is the environment variable overriding the search worker count
// when Options leave it unset (e.g. PRIMEPAR_WORKERS=1 forces serial).
const WorkersEnv = core.WorkersEnv

// Report is a simulated training-iteration measurement.
type Report = sim.Report

// The paper's six evaluation models.
var (
	OPT6B7    = model.OPT6B7
	OPT175B   = model.OPT175B
	Llama2_7B = model.Llama2_7B
	Llama270B = model.Llama2_70B
	BLOOM7B1  = model.BLOOM7B1
	BLOOM176B = model.BLOOM176B
)

// Models returns the paper's evaluation models.
func Models() []Config { return model.All() }

// ModelByName looks up a model by its paper name (e.g. "OPT-175B").
func ModelByName(name string) (Config, error) { return model.ByName(name) }

// V100Profile is the paper's testbed hardware profile.
func V100Profile() Profile { return device.V100Profile() }

// Profiles returns every named machine preset (V100 testbed, A100, TPU-v4
// torus, mixed A100+V100 fleet, three-tier A100 superpod).
func Profiles() []Profile { return device.Profiles() }

// ProfileByName resolves a preset name (e.g. "a100-cluster") to its Profile.
func ProfileByName(name string) (Profile, error) { return device.ProfileByName(name) }

// ParseTopology maps "switch" or "torus-2d" to a Topology value.
func ParseTopology(s string) (Topology, error) { return device.ParseTopology(s) }

// ParseLinksSpec parses a custom link hierarchy from its CLI encoding
// (comma-separated name:width:bandwidth:latency tiers, innermost first;
// width "rest" on the last tier absorbs the remaining devices).
func ParseLinksSpec(spec string) ([]LinkTier, error) { return device.ParseLinksSpec(spec) }

// NewCluster builds a cluster of `devices` GPUs (a power of two, at most
// 1024) with `perNode` per node using the V100 profile.
func NewCluster(devices, perNode int) (*Cluster, error) {
	return device.NewCluster(devices, perNode, device.V100Profile())
}

// NewClusterWithProfile builds a cluster with custom hardware coefficients.
func NewClusterWithProfile(devices, perNode int, p Profile) (*Cluster, error) {
	return device.NewCluster(devices, perNode, p)
}

// Options tune the search.
type Options struct {
	// Alpha is the latency↔memory weight of the paper's Eq. 7
	// (seconds per byte of per-device peak memory).
	Alpha float64
	// SpatialOnly restricts the space to conventional partition-by-
	// dimension (the Alpa-like baseline).
	SpatialOnly bool
	// NoBatchSplit forbids partitioning the batch axis (used when data
	// parallelism is controlled externally, e.g. 3D configurations).
	NoBatchSplit bool
	// MaxPrimeK caps the spatial-temporal primitive's order (default 2,
	// i.e. up to P_{4×4}).
	MaxPrimeK int
}

// Plan is an optimized parallel training strategy for a model on a cluster.
type Plan struct {
	Model   Config
	Cluster *Cluster
	// Seqs assigns one partition sequence to each node of the
	// transformer-block graph (see internal/model for the node layout).
	Seqs []Seq
	// PredictedCost is the optimizer's Eq. 10 objective for all layers.
	PredictedCost float64
	// LayerCost is the optimal single-layer DP cost (zero for baseline
	// plans, which report only the overall objective).
	LayerCost float64
	// SpaceSizes records the per-node candidate-space sizes |P|.
	SpaceSizes []int
	// Stats instruments the search that produced the plan (zero for
	// baseline plans, which perform no search).
	Stats SearchStats

	system string
}

// Search finds the optimal spatial-temporal partition strategy for cfg on
// the cluster (the PrimePar system). At most one Options value may be
// passed; passing more returns an error.
func Search(cfg Config, cluster *Cluster, opts ...Options) (*Plan, error) {
	o, err := searchOptions(opts)
	if err != nil {
		return nil, err
	}
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(cluster)
	m.Alpha = o.Alpha
	opt := core.NewOptimizer(m)
	opt.Opts.AllowPrime = !o.SpatialOnly
	opt.Opts.AllowBatchSplit = !o.NoBatchSplit
	if o.MaxPrimeK > 0 {
		opt.Opts.MaxPrimeK = o.MaxPrimeK
	}
	strat, err := opt.Plan(context.Background(), core.PlanRequest{Graph: g, Layers: cfg.Layers})
	if err != nil {
		return nil, err
	}
	name := "PrimePar"
	if o.SpatialOnly {
		name = "spatial-only"
	}
	return &Plan{
		Model:         cfg,
		Cluster:       cluster,
		Seqs:          strat.Seqs,
		PredictedCost: strat.TotalCost,
		LayerCost:     strat.LayerCost,
		SpaceSizes:    strat.SpaceSizes,
		Stats:         strat.Stats,
		system:        name,
	}, nil
}

func searchOptions(opts []Options) (Options, error) {
	if len(opts) > 1 {
		return Options{}, fmt.Errorf("primepar: pass at most one Options value, got %d", len(opts))
	}
	o := Options{Alpha: 1e-12}
	if len(opts) == 1 {
		o = opts[0]
	}
	return o, nil
}

// MegatronPlan builds the Megatron-LM baseline strategy with 2^dBits-way
// data parallelism (pass dBits=-1 to auto-select the fastest).
func MegatronPlan(cfg Config, cluster *Cluster, dBits int) (*Plan, error) {
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	m := cost.NewModel(cluster)
	var seqs []Seq
	if dBits < 0 {
		best, err := baseline.BestMegatron(m, g)
		if err != nil {
			return nil, err
		}
		seqs = best.Seqs
	} else {
		seqs, err = baseline.Megatron(g, cluster.Bits(), dBits)
		if err != nil {
			return nil, err
		}
	}
	return &Plan{
		Model:         cfg,
		Cluster:       cluster,
		Seqs:          seqs,
		PredictedCost: m.Overall(g, seqs),
		system:        "Megatron-LM",
	}, nil
}

// Simulate executes one training iteration of the plan on the discrete-
// event cluster simulator and reports latency breakdown and peak memory.
func (p *Plan) Simulate() (*Report, error) {
	return p.simulate(false)
}

// SimulateDetailed additionally records the per-kernel timeline in
// Report.Segments (exportable via internal/trace).
func (p *Plan) SimulateDetailed() (*Report, error) {
	return p.simulate(true)
}

func (p *Plan) simulate(segments bool) (*Report, error) {
	g, err := model.BuildBlock(p.Model)
	if err != nil {
		return nil, err
	}
	s := sim.New(p.Cluster)
	s.RecordSegments = segments
	return s.Run(g, p.Seqs, p.Model.Layers)
}

// TokensPerIteration returns the training tokens each iteration processes.
func (p *Plan) TokensPerIteration() float64 {
	return float64(p.Model.Batch) * float64(p.Model.SeqLen)
}

// Describe renders the plan in the paper's Fig. 9 𝒫 notation.
func (p *Plan) Describe() string {
	g, err := model.BuildBlock(p.Model)
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s strategy for %s on %d GPUs (%d/node):\n",
		p.system, p.Model.Name, p.Cluster.NumDevices, p.Cluster.DevicesPerNode)
	for i, op := range g.Nodes {
		fmt.Fprintf(&b, "  %-8s 𝒫 = %s\n", op.Name, p.Seqs[i].Format(op.AxisNames()))
	}
	if p.PredictedCost > 0 {
		fmt.Fprintf(&b, "  predicted cost: %.4g s/iteration\n", p.PredictedCost)
	}
	return b.String()
}

// Check statically validates the plan for deployment and returns
// human-readable warnings (empty = clean): strategy/graph arity, bit
// budget, axis divisibility (a slice count that does not divide the axis
// forces ragged kernels), and projected peak memory vs device capacity.
func (p *Plan) Check() ([]string, error) {
	g, err := model.BuildBlock(p.Model)
	if err != nil {
		return nil, err
	}
	if len(p.Seqs) != len(g.Nodes) {
		return nil, fmt.Errorf("primepar: plan has %d strategies for a %d-node graph", len(p.Seqs), len(g.Nodes))
	}
	var warnings []string
	nbits := p.Cluster.Bits()
	for i, op := range g.Nodes {
		seq := p.Seqs[i]
		if err := seq.Validate(len(op.Axes), nbits); err != nil {
			return nil, fmt.Errorf("primepar: node %s: %w", op.Name, err)
		}
		for ax := range op.Axes {
			slices := seq.NumSlices(ax)
			if slices > op.Axes[ax].Size {
				warnings = append(warnings, fmt.Sprintf(
					"%s: axis %s sliced %d ways but has only %d elements",
					op.Name, op.Axes[ax].Name, slices, op.Axes[ax].Size))
			} else if op.Axes[ax].Size%slices != 0 {
				warnings = append(warnings, fmt.Sprintf(
					"%s: axis %s (%d) not divisible by %d slices (ragged kernels)",
					op.Name, op.Axes[ax].Name, op.Axes[ax].Size, slices))
			}
		}
	}
	rep, err := p.Simulate()
	if err != nil {
		return nil, err
	}
	if capacity := p.Cluster.Profile.MemoryCapacity; capacity > 0 && rep.PeakMemoryBytes > capacity {
		warnings = append(warnings, fmt.Sprintf(
			"projected peak memory %.1f GiB exceeds device capacity %.1f GiB — add pipeline stages, recomputation or ZeRO",
			rep.PeakMemoryBytes/(1<<30), capacity/(1<<30)))
	}
	return warnings, nil
}

// Explain renders a per-operator cost attribution table for the plan: each
// node's strategy alongside its simulated compute, collective and ring
// seconds and its modeled memory footprint — the paper's Fig. 9-style
// analysis for any model.
func (p *Plan) Explain() (string, error) {
	g, err := model.BuildBlock(p.Model)
	if err != nil {
		return "", err
	}
	rep, err := p.Simulate()
	if err != nil {
		return "", err
	}
	m := cost.NewModel(p.Cluster)
	t := report.NewTable(fmt.Sprintf("Per-operator attribution — %s on %d GPUs", p.Model.Name, p.Cluster.NumDevices),
		"op", "𝒫", "compute", "all-reduce", "ring", "memory")
	for i, op := range g.Nodes {
		ob := rep.PerOp[op.Name]
		if ob == nil {
			ob = &sim.OpBreakdown{}
		}
		ic := m.IntraCost(op, p.Seqs[i])
		t.AddRow(op.Name, p.Seqs[i].Format(op.AxisNames()),
			report.Seconds(ob.Compute), report.Seconds(ob.Collective),
			report.Seconds(ob.Ring), report.Bytes(ic.MemoryBytes))
	}
	return t.String(), nil
}

// Digest returns a stable hex digest of the strategy content — the exact
// partition sequences and the bit patterns of the predicted costs. Two plans
// with equal digests chose identical strategies; the daemon's /v1/plan and
// /v1/plan/sweep responses report the same digest, so clients can verify
// that a portfolio point matches an individually planned request.
func (p *Plan) Digest() string {
	return experiments.StrategyDigest(&core.Strategy{
		Seqs:      p.Seqs,
		LayerCost: p.LayerCost,
		TotalCost: p.PredictedCost,
		Layers:    p.Model.Layers,
	})
}

// UsesPrime reports whether any operator uses the spatial-temporal
// primitive P_{2^k×2^k}.
func (p *Plan) UsesPrime() bool {
	for _, s := range p.Seqs {
		if s.HasPrime() {
			return true
		}
	}
	return false
}

// VerifyTraining executes one training iteration of a linear operator
// O[M,K] = I[M,N]·W[N,K] partitioned by P_{2^k×2^k} on 4^k goroutine
// "devices" connected by channels — the paper's Fig. 4 orchestration — and
// returns the maximum absolute deviation from serial (unpartitioned)
// training across the forward output, both gradients and the updated
// weights. A tiny result (≈1e-12) certifies that the spatial-temporal
// partition preserves exact training semantics.
func VerifyTraining(k, m, n, kk int) (float64, error) {
	seq := partition.NewSeq(partition.NewPrime(k, runtime.AxM, runtime.AxN, runtime.AxK))
	eng, err := runtime.NewEngine(seq, 2*k, m, n, kk)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	I := tensor.New(m, n).FillRandom(rng)
	W := tensor.New(n, kk).FillRandom(rng)
	dO := tensor.New(m, kk).FillRandom(rng)
	got, err := eng.Train(I, W, dO, 0.01)
	if err != nil {
		return 0, err
	}
	o, di, dw, wNew := runtime.Serial(I, W, dO, 0.01)
	max := tensor.MaxAbsDiff(got.O, o)
	if e := tensor.MaxAbsDiff(got.DI, di); e > max {
		max = e
	}
	if e := tensor.MaxAbsDiff(got.DW, dw); e > max {
		max = e
	}
	if e := tensor.MaxAbsDiff(eng.AssembleWeights(got.DeviceW), wNew); e > max {
		max = e
	}
	return max, nil
}

// Config3D is a (pipeline, data, model) parallelism configuration.
type Config3D = pipeline.Config3D

// Plan3DRequest parameterizes the joint spatial-temporal 3D search.
type Plan3DRequest = pipeline.Plan3DRequest

// Tensor-parallel system selectors for Plan3DRequest.System.
const (
	SystemMegatron = pipeline.Megatron
	SystemPrimePar = pipeline.PrimePar
)

// Plan3DResult is a jointly optimized 3D deployment: stage boundaries,
// per-stage tensor strategies and the simulated 1F1B schedule breakdown.
type Plan3DResult = pipeline.Plan3D

// Plan3D jointly chooses pipeline-stage boundaries and per-stage PrimePar
// tensor partitions — never worse than the best uniform (p,d,m) grid point,
// usually better when the pipeline depth does not divide the layer count.
// Set req.Config to evaluate one grid configuration, req.Stages /
// req.DataParallel to pin dimensions, or neither to search everything.
func Plan3D(ctx context.Context, cfg Config, cluster *Cluster, req Plan3DRequest) (*Plan3DResult, error) {
	req.Model = cfg
	return pipeline.NewOptimizer(cluster).Plan3D(ctx, req)
}
