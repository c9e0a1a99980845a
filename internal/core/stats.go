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

	// EdgeMatsBuilt counts grouped matrices actually prepared (edge-key
	// cache misses); EdgeCacheHits counts edges served from the cache.
	EdgeMatsBuilt int `json:"edge_mats_built"`
	EdgeCacheHits int `json:"edge_cache_hits"`

	// EdgeCellsEvaluated counts the matrix cells this call filled, in every
	// matrix of every fraction group: the interC cells its bounds and DP
	// read that no earlier search of the layer entry filled (DESIGN.md
	// §5.40). A cold search fills a fraction of the uniqueRows×uniqueCols
	// cells it prepares, and an α shift may fill some too.
	EdgeCellsEvaluated int64 `json:"edge_cells_evaluated"`

	// EdgeFracCells counts the cells of EdgeCellsEvaluated whose coverage
	// fractions were computed (a memo probe or compute() each): the cells
	// each fraction group's leader filled. The other cells copy a leader's
	// fractions (DESIGN.md §5.23).
	EdgeFracCells int64 `json:"edge_frac_cells"`

	// CandsTotal sums |P| over the graph's nodes: the space the DP is exact
	// over, the masked one under PlanRequest.Keep.
	CandsTotal int `json:"cands_total"`

	// CandsPruned sums |P| − survivors over the graph's nodes: the
	// candidates whose relaxed lower bound exceeds the incumbent plan's
	// cost, which the layer DP therefore never runs over (bound.go,
	// DESIGN.md §5.38). A plan hit reads zero.
	CandsPruned int `json:"cands_pruned"`

	// SegTablesBuilt counts the segments whose DP ran this call: every
	// segment of the graph, or 0 on a plan hit.
	SegTablesBuilt int `json:"seg_tables_built"`

	// CrossCallTableHits always reads zero. It counted hits in a cross-call
	// layer-table tier that no request reached once a layer-count change
	// became a plan hit, and was deleted (DESIGN.md §5.34); the field stays
	// because the repository benchmark reads it by name.
	CrossCallTableHits int `json:"cross_call_table_hits"`

	// EntriesScanned is the exact count of cells the min-plus products of
	// the layer DP over the survivors relax, one product per composition
	// (every Bellman step of every segment and every merge of a segment into
	// the tables before it): Σ rows × groups × columns, the DP's work volume
	// (DESIGN.md §5.39). A Bellman step between two nodes with no edge
	// composes with a one-cell zero matrix and counts rows × 1 × 1; no model
	// graph has such a step. The bound stages' small incumbent DPs are timed
	// in DPTime but not counted here, nor in the other DP counters.
	// (Formerly min_plus_scanned.)
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

	// CrossCallNodeHits / CrossCallEdgeHits count the unique node entries
	// and edge matrices served by the cross-call layer tier, which persists
	// ACROSS Plan calls: a layer hit (an α shift) serves all of them, any
	// other search none. The per-call NodeCacheHits/EdgeCacheHits count
	// within-call signature sharing only.
	CrossCallNodeHits int `json:"cross_call_node_hits"`
	CrossCallEdgeHits int `json:"cross_call_edge_hits"`

	// CrossCallPlanHits is 1 when the whole answer was served from the
	// cross-call plan tier (plancache.go): a repeat, at any layer count,
	// that ran no node pass (so every node count above reads 0), built no
	// edge matrix and ran no segment table, merge or layer pick.
	CrossCallPlanHits int `json:"cross_call_plan_hits"`

	// Wall time per stage: candidate evaluation, the edge phase (EdgeMatTime:
	// preparing the matrices, then each fill of the cells the bounds need
	// with its restriction of the inputs to the kept candidates), the DP
	// (DPTime: the bound stages with their incumbent DPs, then the
	// per-segment DP + merging over the survivors, the fills and
	// restrictions excluded), the pick of the periodic layer
	// (StackTime: one scan of the layer table's diagonal plus
	// reconstruction), and the whole call.
	NodeEvalTime time.Duration `json:"node_eval_ns"`
	EdgeMatTime  time.Duration `json:"edge_mat_ns"`
	DPTime       time.Duration `json:"dp_ns"`
	StackTime    time.Duration `json:"stack_ns"`
	TotalTime    time.Duration `json:"total_ns"`
}

// Add accumulates s into st, as when one plan is assembled from several
// searches: Workers keeps the maximum, every other counter and duration is
// summed.
func (st *SearchStats) Add(s SearchStats) {
	st.Workers = max(st.Workers, s.Workers)
	st.NodeEvals += s.NodeEvals
	st.NodeCacheHits += s.NodeCacheHits
	st.CandidatesEvaluated += s.CandidatesEvaluated
	st.EdgeMatsBuilt += s.EdgeMatsBuilt
	st.EdgeCacheHits += s.EdgeCacheHits
	st.EdgeCellsEvaluated += s.EdgeCellsEvaluated
	st.EdgeFracCells += s.EdgeFracCells
	st.CandsTotal += s.CandsTotal
	st.CandsPruned += s.CandsPruned
	st.SegTablesBuilt += s.SegTablesBuilt
	st.CrossCallTableHits += s.CrossCallTableHits
	st.EntriesScanned += s.EntriesScanned
	st.EntriesBoundSkipped += s.EntriesBoundSkipped
	st.EdgeCellsReused += s.EdgeCellsReused
	st.CrossCallNodeHits += s.CrossCallNodeHits
	st.CrossCallEdgeHits += s.CrossCallEdgeHits
	st.CrossCallPlanHits += s.CrossCallPlanHits
	st.NodeEvalTime += s.NodeEvalTime
	st.EdgeMatTime += s.EdgeMatTime
	st.DPTime += s.DPTime
	st.StackTime += s.StackTime
	st.TotalTime += s.TotalTime
}
