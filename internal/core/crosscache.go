// Cross-call search cache: the α-free inputs of each layer graph's DP and
// finished answers (plancache.go) persist ACROSS Plan calls, so a sweep that
// revisits a layer graph at another α pays the node pass and the edge
// matrices once, and an identical repeat or a layer-count change runs no DP
// at all. The within-call signature memo (dp.go) dedups work inside one
// search; this cache dedups work between searches.
//
// A search is a plan probe, then a layer probe, then prepare on a layer miss
// and solve (dp.go). What a request differing from a cached one reuses:
//
//   - identical repeat or layer-count change → a plan hit: the answer is
//     one periodic layer whatever the count, served from the stored answer
//     with no node pass;
//   - α shift → a layer hit: the node entries and edge matrices are
//     α-independent, but the plan key folds α, so solve runs. It fills the
//     edge cells its bounds need that no earlier search of the entry filled
//     (often none), growing each fraction group's filled rectangle, and
//     never rebuilds a matrix (DESIGN.md §5.40);
//   - any graph edit → both keys fold the whole graph, so it is a cold
//     search (DESIGN.md §5.37);
//   - α shift right after a restart → a cold search: the restart file holds
//     plans only (diskcache.go, DESIGN.md §5.36);
//   - device count / profile → the environment prefix changes, so every
//     tier misses (candidate spaces are genuinely different).
//
// The layer table itself is never cached: it lives for one solve (DESIGN.md
// §5.34).
//
// Keys are exact byte encodings, like sig.go's: an environment prefix (every
// cluster, cost-model and search-option field the cached value depends on)
// followed by the whole-graph signature. α is deliberately EXCLUDED from the
// layer key — candidate enumeration, intra costs, interfaces and
// RedistributeDetail never read it — so an α-sweep (AblationAlphaSweep)
// hits; the α-dependent totals are rebuilt per call from the cached Intra
// breakdowns (withAlpha).
//
// Both tiers are tier values (tier.go): a map, a cell count and a cap with
// an epoch flush. In-process inserts and disk-cache merges take the same
// insert, so no tier grows past its cap however its entries arrive.
//
// Configurations the byte encoding cannot identify — a calibration Book
// replaces the analytic formulas with arbitrary regressed models — bypass
// the shared cache: each call gets a private empty one (crossCache).
package core

import (
	"encoding/binary"
	"math"

	"repro/internal/cost"
	"repro/internal/partition"
)

// nodeEntry is the α-independent part of one node's evaluation: per
// candidate its sequence, Intra breakdown and interfaces, plus the candidate
// space's interned axis patterns (cost.Patterns of its output and of its
// input interfaces), which every edge touching the space groups and keys its
// tables by. evalNode fills every field before the entry is shared, so
// concurrent edge builds only read it.
type nodeEntry struct {
	seqs  []partition.Seq
	intra []cost.Intra
	out   []*cost.Iface
	in    []*cost.Iface

	outPats, inPats *cost.Patterns
}

// withAlpha completes an entry into a per-call nodeCands: the DP node cost
// of every candidate at α. A layer hit and a cold search run this same
// expression, so they are bit-identical.
func (e *nodeEntry) withAlpha(alpha float64) *nodeCands {
	total := make([]float64, len(e.intra))
	for i := range e.intra {
		total[i] = e.intra[i].Total(alpha)
	}
	return &nodeCands{nodeEntry: e, total: total}
}

// SearchCache carries layer inputs and finished plans across Plan calls,
// one bounded tier each (tier.go). Safe for concurrent use; cached values
// are read-only, except a layer entry's matrix cells and filled rectangles,
// which only grow, under the entry's mutex (layerInputs).
type SearchCache struct {
	layers *tier[*layerInputs] // α-free, in memory only
	plans  *tier[*cachedPlan]  // plancache.go
}

// NewSearchCache returns an empty cross-call cache.
func NewSearchCache() *SearchCache {
	return &SearchCache{
		layers: newTier(maxCachedLayerCells, layerCells),
		plans:  newTier(maxCachedPlanCells, planCells),
	}
}

// noOverlaps is the always-empty stand-in Overlaps returns.
type noOverlaps struct{}

// Entries always returns zero.
func (noOverlaps) Entries() int { return 0 }

// Overlaps always reports an empty tier. It exposed a cross-scale overlap
// tier that made warm sweeps no faster and was deleted (DESIGN.md §5.8);
// the method stays because the repository benchmark calls it by name.
func (c *SearchCache) Overlaps() noOverlaps { return noOverlaps{} }

// DefaultSearchCache backs every NewOptimizer-built optimizer, so the
// experiment drivers (sweep, fig9, fig10, ablations, table2) share work with
// zero plumbing. Give an optimizer a private NewSearchCache, or a nil
// Cache, to isolate it.
var DefaultSearchCache = NewSearchCache()

// Sizes reports the unique node entries and edge matrices the layer tier
// holds, summed over its layer graphs, mostly for logging and tests.
func (c *SearchCache) Sizes() (nodes, edges int) {
	for _, in := range c.layers.snapshot() {
		nodes += len(in.slots)
		edges += len(in.mats)
	}
	return nodes, edges
}

// TableEntries always returns zero. It counted a layer-table tier that no
// request reached once a layer-count change became a plan hit, and was
// deleted (DESIGN.md §5.34); the method stays because the repository
// benchmark calls it by name.
func (c *SearchCache) TableEntries() int { return 0 }

// PlanEntries reports the cached plan count (for /v1/stats).
func (c *SearchCache) PlanEntries() int { return c.plans.len() }

// crossCache returns the cache to consult for this search: o.Cache, or a
// private empty cache when there is none or the configuration must bypass
// the shared one (a calibration Book, whose regressed models the byte keys
// cannot identify). Every probe of an empty cache misses, so a private
// cache serves nothing and the answer is the uncached one.
func (o *Optimizer) crossCache() *SearchCache {
	if o.Cache == nil || o.Cost.Book != nil {
		return NewSearchCache()
	}
	return o.Cache
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendEnvSig appends every input of a search OTHER than the graph and α:
// the cluster shape, every hardware coefficient the cost model reads, the
// α-independent model fields, and the options that shape candidate
// enumeration. Two optimizers with equal environment signatures produce
// bit-identical node evaluations for equal ops.
func (o *Optimizer) appendEnvSig(b []byte) []byte {
	cl := o.Cost.Cluster
	b = binary.AppendUvarint(b, uint64(cl.NumDevices))
	b = binary.AppendUvarint(b, uint64(cl.DevicesPerNode))
	p := cl.Profile
	b = binary.AppendUvarint(b, uint64(len(p.Name)))
	b = append(b, p.Name...)
	for _, f := range [...]float64{
		p.FLOPs, p.MemBW, p.IntraBW, p.InterBW, p.IntraLatency, p.InterLatency,
		p.KernelOverhead, p.ElementBytes, p.MemoryCapacity, p.TorusBW, p.TorusLatency,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = append(b, byte(p.Collective), byte(p.Topology))
	// Link tiers and compute classes, resolved against this cluster's size.
	// Folding the RESOLVED tiers (not Profile.Links) means a "-1 = rest"
	// preset hashes per machine size, exactly matching what the cost model
	// reads. Every section is length-prefixed and every string is
	// length-prefixed, so distinct heterogeneous machines cannot collide by
	// concatenation (FuzzEnvSigInjectivity pins this).
	tiers := cl.Tiers()
	b = binary.AppendUvarint(b, uint64(len(tiers)))
	for _, t := range tiers {
		b = binary.AppendUvarint(b, uint64(len(t.Name)))
		b = append(b, t.Name...)
		b = binary.AppendVarint(b, int64(t.Bits))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Bandwidth))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Latency))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Classes)))
	for _, cc := range p.Classes {
		b = binary.AppendUvarint(b, uint64(len(cc.Name)))
		b = append(b, cc.Name...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cc.FLOPs))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cc.MemBW))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cc.KernelOverhead))
	}
	m := o.Cost
	b = append(b, boolByte(m.Overlap), boolByte(m.ZeRO1))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.ParamBytesPerElement))
	b = binary.AppendVarint(b, int64(o.Opts.MaxPrimeK))
	b = append(b, boolByte(o.Opts.AllowBatchSplit))
	return b
}

// RequestKey identifies a whole plan request for in-flight deduplication:
// the environment signature the cross-call cache keys share, plus α, which
// that signature deliberately leaves out, plus a caller tag naming the graph
// (model name, layer count). Two requests with equal keys run bit-identical
// searches, so a singleflight leader's answer serves every concurrent
// duplicate.
func (o *Optimizer) RequestKey(tag string) string {
	b := o.appendEnvSig(nil)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Cost.Alpha))
	b = append(b, tag...)
	return string(b)
}
