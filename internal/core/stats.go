// Search instrumentation: every Plan call reports what the memo caches
// and the worker pool actually did, so benchmarks (cmd/primebench -exp
// table2, BENCH_table2.json) can track the search-performance trajectory
// across changes.
package core

import "time"

// SearchStats describes one Plan call: cache effectiveness, work volume,
// and wall time per DP stage.
type SearchStats struct {
	// Workers is the resolved worker-pool width.
	Workers int `json:"workers"`

	// NodeEvals counts nodeCands evaluations actually performed (signature
	// cache misses); NodeCacheHits counts nodes served from the memo.
	NodeEvals     int `json:"node_evals"`
	NodeCacheHits int `json:"node_cache_hits"`

	// CandidatesEvaluated sums |P| over evaluated (unique) nodes.
	CandidatesEvaluated int `json:"candidates_evaluated"`

	// EdgeMatsBuilt counts grouped matrices actually computed (edge-key
	// cache misses); EdgeCacheHits counts edges served from the cache.
	EdgeMatsBuilt int `json:"edge_mats_built"`
	EdgeCacheHits int `json:"edge_cache_hits"`

	// EdgeCellsEvaluated sums uniqueRows×uniqueCols over built matrices —
	// the number of Measure/RedistributeDetail evaluations.
	EdgeCellsEvaluated int64 `json:"edge_cells_evaluated"`

	// CandsTotal sums |P| over the graph's nodes after beam pruning: the
	// candidates the DP runs over.
	CandsTotal int `json:"cands_total"`

	// CandsPruned always reads zero. It counted the candidates removed by a
	// dominance pre-filter that pruned none on any paper model and was
	// deleted (DESIGN.md §5.7); the field stays because the repository
	// benchmark reads it by name.
	CandsPruned int `json:"cands_pruned"`

	// DPRowClasses sums the head-interface row classes over segment tables:
	// the row dimension the factored DP actually iterates, versus the full
	// |P| of each segment head in CandidatesEvaluated.
	DPRowClasses int64 `json:"dp_row_classes"`

	// DPTreeMerges counts the in-segment binary merges performed by the
	// tree DP (zero when every segment's planned shape is a single chain).
	DPTreeMerges int `json:"dp_tree_merges"`

	// SegTablesBuilt counts segment DP tables actually computed this call;
	// CrossCallTableHits counts segments served whole from the cross-call
	// table cache (delta.go) — the "changed frontier" of a delta re-plan is
	// exactly the SegTablesBuilt segments.
	SegTablesBuilt     int `json:"seg_tables_built"`
	CrossCallTableHits int `json:"cross_call_table_hits"`

	// EntriesScanned sums the entries visited by the sorted-scan min-plus
	// kernels across segment chains, in-segment merges and layer stacking —
	// the measured DP floor (DESIGN.md §5.2/§5.3) the binary-split tree
	// attacks. Tracked by BenchmarkScanMinPlus*/primebench. (Formerly
	// min_plus_scanned.)
	EntriesScanned int64 `json:"entries_scanned"`

	// EntriesBoundSkipped always reads zero. It counted the entries skipped
	// by a two-level scan exit that saved 0.17% of them and was deleted
	// (DESIGN.md §5.8); the field stays because the repository benchmark
	// reads it by name.
	EntriesBoundSkipped int64 `json:"entries_bound_skipped"`

	// EdgeCellsReused always reads zero. It counted the edge-matrix cells
	// copied from a cross-scale overlap tier that made warm sweeps no faster
	// and was deleted (DESIGN.md §5.8); the field stays because the
	// repository benchmark reads it by name.
	EdgeCellsReused int64 `json:"edge_cells_reused"`

	// CrossCallNodeHits / CrossCallEdgeHits count node evaluations and edge
	// matrices served by the Optimizer-level cache that persists ACROSS
	// Plan calls (sweeps over scales/α reuse earlier work). The
	// per-call NodeCacheHits/EdgeCacheHits count within-call signature
	// sharing only.
	CrossCallNodeHits int `json:"cross_call_node_hits"`
	CrossCallEdgeHits int `json:"cross_call_edge_hits"`

	// Wall time per stage: candidate evaluation, edge-matrix building,
	// per-segment DP + merging, layer stacking, and the whole call.
	NodeEvalTime time.Duration `json:"node_eval_ns"`
	EdgeMatTime  time.Duration `json:"edge_mat_ns"`
	DPTime       time.Duration `json:"dp_ns"`
	StackTime    time.Duration `json:"stack_ns"`
	TotalTime    time.Duration `json:"total_ns"`
}
