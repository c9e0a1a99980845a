package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one completed (or failed) call in the measured window.
type sample struct {
	Cell      string `json:"cell"`
	Class     string `json:"class,omitempty"` // daemon-restart: warm, cold or pipeline
	Round     int    `json:"round"`
	StartNS   int64  `json:"start_ns"`
	LatencyNS int64  `json:"latency_ns"`
	Err       string `json:"err,omitempty"`
	Digest    string `json:"digest,omitempty"`
	// EstimateNS times EstimatePlan when the workload calls it before Plan;
	// LatencyNS includes it.
	EstimateNS int64 `json:"estimate_ns,omitempty"`
	EstWarm    bool  `json:"est_warm,omitempty"`
	// Batch is the micro-batch a cold daemon request asked for.
	Batch     int                   `json:"batch,omitempty"`
	Stats     core.SearchStats      `json:"stats"`
	Plan3D    *pipeline.Plan3DStats `json:"plan3d,omitempty"`
	ServerMS  float64               `json:"server_ms,omitempty"`
	RespBytes int                   `json:"resp_bytes,omitempty"`
}

// interval is one round of the window: a pass over every cell in-process,
// one restarted daemon serving its fixed request sequence for daemon-restart.
// Rates are medians over rounds, so a few seconds of a noisy neighbour move
// them less than a window-long mean.
type interval struct {
	Plans int     `json:"plans"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// cacheSizes are entry counts of the search caches a workload planned
// against, averaged over those caches at the end of their use.
type cacheSizes struct {
	Nodes    float64 `json:"nodes"`
	Edges    float64 `json:"edges"`
	Tables   float64 `json:"tables"`
	Overlaps float64 `json:"overlaps"`
	n        int
}

func (c *cacheSizes) add(sc *core.SearchCache) {
	nodes, edges := sc.Sizes()
	k := float64(c.n)
	c.Nodes = (c.Nodes*k + float64(nodes)) / (k + 1)
	c.Edges = (c.Edges*k + float64(edges)) / (k + 1)
	c.Tables = (c.Tables*k + float64(sc.TableEntries())) / (k + 1)
	c.Overlaps = (c.Overlaps*k + float64(sc.Overlaps().Entries())) / (k + 1)
	c.n++
}

// daemonFigures are what daemon-restart reads from primepard and from its
// own in-process timing of the restart file.
type daemonFigures struct {
	Stats          daemonStats `json:"stats"`
	LoadS          float64     `json:"load_s"`
	SaveS          float64     `json:"save_s"`
	FileMB         float64     `json:"file_mb"`
	LoadedOverlaps int         `json:"loaded_overlaps"`
	ShutdownSaveS  float64     `json:"shutdown_save_s"`
}

// runResult is one workload's measured window plus the process figures taken
// around it. In-process workloads produce it in a child process and send it
// to the parent as JSON.
type runResult struct {
	Samples   []sample   `json:"samples"`
	Intervals []interval `json:"intervals"`
	WindowS   float64    `json:"window_s"`
	// SetupS holds every set-up of the run: in-process, each repetition of
	// BuildBlock and cluster construction; daemon-restart, each round's spawn
	// until /v1/healthz answers.
	SetupS []float64 `json:"setup_s"`
	// PeakRSSMB is, in-process, the largest per-cell median of the peak each
	// search cache's lifetime reached; for daemon-restart, the median over
	// rounds of primepard's VmHWM once the round's fixed requests are served.
	PeakRSSMB    float64        `json:"peak_rss_mb"`
	AllocMB      float64        `json:"alloc_mb"`
	GCCPUFrac    float64        `json:"gc_cpu_frac"`
	Cache        cacheSizes     `json:"cache"`
	BuildBlockMS []float64      `json:"build_block_ms"`
	Daemon       *daemonFigures `json:"daemon,omitempty"`
	Spans        []span         `json:"spans,omitempty"`
}

func (r *runResult) ok() []sample {
	var out []sample
	for _, s := range r.Samples {
		if s.Err == "" {
			out = append(out, s)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the q-quantile of xs by the exclusive method of Python's
// statistics.quantiles (position q·(n+1), interpolated between neighbours),
// the definition the two-set agreement check uses, kept within [min, max].
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	d := max(1, min(int(math.Floor(pos)), n-1))
	v := s[d-1] + (pos-float64(d))*(s[d]-s[d-1])
	return max(s[0], min(v, s[n-1]))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cellLatencies groups successful latencies (ms) by cell.
func cellLatencies(ss []sample) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range ss {
		out[s.Cell] = append(out[s.Cell], float64(s.LatencyNS)/1e6)
	}
	return out
}

// cellGeomean is the geometric mean over cells of each cell's median, so
// every request kind weighs the same whatever its share of the mix.
func cellGeomean(cells map[string][]float64) float64 {
	if len(cells) == 0 {
		return 0
	}
	var logs float64
	for _, xs := range cells {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(cells)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd computes the metrics a caller of the planner sees.
func endToEnd(m *measured) map[string]metric {
	var rate, cpu []float64
	for _, iv := range m.res.Intervals {
		if iv.Plans > 0 {
			rate = append(rate, float64(iv.Plans)/iv.WallS)
			cpu = append(cpu, 1000*iv.CPUS/float64(iv.Plans))
		}
	}
	return map[string]metric{
		"setup_s":         {median(m.res.SetupS), "s"},
		"plan_p50_ms":     {cellGeomean(cellLatencies(m.res.ok())), "ms"},
		"plans_per_s":     {median(rate), "1/s"},
		"cpu_ms_per_plan": {median(cpu), "ms"},
		"peak_rss_mb":     {m.res.PeakRSSMB, "MB"},
	}
}

// perLayer computes the per-layer metrics. Stage times and counts are means
// per completed plan (for Plan3D, per call, summed over its stage searches);
// ratios carry their bases as separate counts. A layer the workload never
// calls reads 0.
func perLayer(m *measured) map[string]metric {
	ok := m.res.ok()
	n := float64(len(ok))
	var st core.SearchStats
	var estNS, estPlanNS, estWarm, estCalls float64
	var p3 pipeline.Plan3DStats
	var p3Calls, p3Elapsed, p3Search float64
	for _, s := range ok {
		x := s.Stats
		st.NodeEvals += x.NodeEvals
		st.CandidatesEvaluated += x.CandidatesEvaluated
		st.EdgeMatsBuilt += x.EdgeMatsBuilt
		st.EdgeCellsEvaluated += x.EdgeCellsEvaluated
		st.CandsTotal += x.CandsTotal
		st.CandsPruned += x.CandsPruned
		st.SegTablesBuilt += x.SegTablesBuilt
		st.CrossCallTableHits += x.CrossCallTableHits
		st.EntriesScanned += x.EntriesScanned
		st.EntriesBoundSkipped += x.EntriesBoundSkipped
		st.EdgeCellsReused += x.EdgeCellsReused
		st.CrossCallNodeHits += x.CrossCallNodeHits
		st.CrossCallEdgeHits += x.CrossCallEdgeHits
		st.NodeEvalTime += x.NodeEvalTime
		st.EdgeMatTime += x.EdgeMatTime
		st.DPTime += x.DPTime
		st.StackTime += x.StackTime
		st.TotalTime += x.TotalTime
		if s.EstimateNS > 0 {
			estCalls++
			estNS += float64(s.EstimateNS)
			estPlanNS += float64(s.LatencyNS)
			if s.EstWarm {
				estWarm++
			}
		}
		if p := s.Plan3D; p != nil {
			p3Calls++
			p3.ConfigsConsidered += p.ConfigsConsidered
			p3.ConfigsPruned += p.ConfigsPruned
			p3.CutsEnumerated += p.CutsEnumerated
			p3.CutsDominated += p.CutsDominated
			p3.CutsBoundSkipped += p.CutsBoundSkipped
			p3.SchedulesSimulated += p.SchedulesSimulated
			p3.StagePlans += p.StagePlans
			p3Elapsed += float64(p.Elapsed)
			p3Search += float64(p.Search.TotalTime)
		}
	}
	per := func(v float64) float64 { return ratio(v, n) }
	perP3 := func(v int) float64 { return ratio(float64(v), p3Calls) }
	count := func(v float64) metric { return metric{v, "count"} }
	frac := func(v float64) metric { return metric{v, "fraction"} }
	out := map[string]metric{
		"model.build_block_ms": {mean(m.res.BuildBlockMS), "ms"},

		"core.search_ms":             {per(ms(st.TotalTime)), "ms"},
		"core.node_eval_ms":          {per(ms(st.NodeEvalTime)), "ms"},
		"core.edge_mat_ms":           {per(ms(st.EdgeMatTime)), "ms"},
		"core.dp_ms":                 {per(ms(st.DPTime)), "ms"},
		"core.stack_ms":              {per(ms(st.StackTime)), "ms"},
		"core.node_evals":            count(per(float64(st.NodeEvals))),
		"core.edge_mats_built":       count(per(float64(st.EdgeMatsBuilt))),
		"core.seg_tables_built":      count(per(float64(st.SegTablesBuilt))),
		"core.candidates_evaluated":  count(per(float64(st.CandidatesEvaluated))),
		"core.edge_cells_evaluated":  count(per(float64(st.EdgeCellsEvaluated))),
		"core.edge_cells_reused":     count(per(float64(st.EdgeCellsReused))),
		"core.entries_scanned":       count(per(float64(st.EntriesScanned))),
		"core.entries_bound_skipped": count(per(float64(st.EntriesBoundSkipped))),
		"core.cands_total":           count(per(float64(st.CandsTotal))),
		"core.cell_reuse_ratio": frac(ratio(float64(st.EdgeCellsReused),
			float64(st.EdgeCellsReused+st.EdgeCellsEvaluated))),
		"core.bound_skip_ratio": frac(ratio(float64(st.EntriesBoundSkipped),
			float64(st.EntriesScanned+st.EntriesBoundSkipped))),
		"core.dominance_prune_ratio": frac(ratio(float64(st.CandsPruned), float64(st.CandsTotal))),

		"core.cache.node_hit_ratio": frac(ratio(float64(st.CrossCallNodeHits),
			float64(st.CrossCallNodeHits+st.NodeEvals))),
		"core.cache.edge_hit_ratio": frac(ratio(float64(st.CrossCallEdgeHits),
			float64(st.CrossCallEdgeHits+st.EdgeMatsBuilt))),
		"core.cache.table_hit_ratio": frac(ratio(float64(st.CrossCallTableHits),
			float64(st.CrossCallTableHits+st.SegTablesBuilt))),
		"core.cache.nodes":           count(m.res.Cache.Nodes),
		"core.cache.edges":           count(m.res.Cache.Edges),
		"core.cache.tables":          count(m.res.Cache.Tables),
		"core.cache.overlap_entries": count(m.res.Cache.Overlaps),
		"core.cache.file_mb":         {0, "MB"},
		"core.cache.load_frac":       frac(0),

		"core.estimate_frac":      frac(ratio(estNS, estPlanNS)),
		"core.estimate_warm_frac": frac(ratio(estWarm, estCalls)),

		"pipeline.nonsearch_frac":      frac(ratio(p3Elapsed-p3Search, p3Elapsed)),
		"pipeline.configs_considered":  count(perP3(p3.ConfigsConsidered)),
		"pipeline.configs_pruned":      count(perP3(p3.ConfigsPruned)),
		"pipeline.cuts_enumerated":     count(perP3(p3.CutsEnumerated)),
		"pipeline.cuts_dominated":      count(perP3(p3.CutsDominated)),
		"pipeline.cuts_bound_skipped":  count(perP3(p3.CutsBoundSkipped)),
		"pipeline.schedules_simulated": count(perP3(p3.SchedulesSimulated)),
		"pipeline.stage_plans":         count(perP3(p3.StagePlans)),

		"primepard.overhead_frac":    frac(0),
		"primepard.resp_kb":          {0, "kB"},
		"primepard.warm_served_frac": frac(0),
		"primepard.dedup_frac":       frac(0),
		"primepard.queued_frac":      frac(0),
		"primepard.shed":             count(0),

		"go.alloc_mb_per_plan": {per(m.res.AllocMB), "MB"},
		"go.gc_cpu_frac":       frac(m.res.GCCPUFrac),
	}
	if d := m.res.Daemon; d != nil {
		var warmOverhead []float64
		var respBytes float64
		for _, s := range ok {
			respBytes += float64(s.RespBytes)
			if s.Class == classWarm {
				rtt := float64(s.LatencyNS) / 1e6
				warmOverhead = append(warmOverhead, (rtt-s.ServerMS)/rtt)
			}
		}
		ds := d.Stats
		out["core.cache.nodes"] = count(float64(ds.CacheNodes))
		out["core.cache.edges"] = count(float64(ds.CacheEdges))
		out["core.cache.tables"] = count(float64(ds.CacheTables))
		out["core.cache.overlap_entries"] = count(float64(d.LoadedOverlaps))
		out["core.cache.file_mb"] = metric{d.FileMB, "MB"}
		out["core.cache.load_frac"] = frac(ratio(d.LoadS, median(m.res.SetupS)))
		out["primepard.overhead_frac"] = frac(median(warmOverhead))
		out["primepard.resp_kb"] = metric{per(respBytes) / 1000, "kB"}
		out["primepard.warm_served_frac"] = frac(ratio(float64(ds.WarmServed), float64(ds.PlansServed)))
		out["primepard.dedup_frac"] = frac(ratio(float64(ds.DedupHits), float64(ds.PlansServed)))
		out["primepard.queued_frac"] = frac(ratio(float64(ds.Admission.Queued), float64(ds.Admission.Admitted)))
		out["primepard.shed"] = count(float64(ds.Admission.sheds()))
	}
	return out
}

// detail holds figures that only some workloads have; they go to the report
// document, not to the benchmark's declared metrics.
func detail(name string, m *measured) map[string]metric {
	ok := m.res.ok()
	out := map[string]metric{}
	if name == scaleSweep {
		// One round is one sweep of the whole portfolio.
		var rounds []float64
		for _, iv := range m.res.Intervals {
			rounds = append(rounds, 1000*iv.WallS)
		}
		out["sweep_p50_ms"] = metric{median(rounds), "ms"}
	}
	var est []float64
	var p3ms, p3search, p3non []float64
	for _, s := range ok {
		if s.EstimateNS > 0 {
			est = append(est, float64(s.EstimateNS)/1e6)
		}
		if p := s.Plan3D; p != nil {
			p3ms = append(p3ms, ms(p.Elapsed))
			p3search = append(p3search, ms(p.Search.TotalTime))
			p3non = append(p3non, ms(p.Elapsed-p.Search.TotalTime))
		}
	}
	if len(est) > 0 {
		out["core.estimate_ms"] = metric{median(est), "ms"}
	}
	if len(p3ms) > 0 {
		out["pipeline.plan3d_ms"] = metric{median(p3ms), "ms"}
		out["pipeline.search_ms"] = metric{median(p3search), "ms"}
		out["pipeline.nonsearch_ms"] = metric{median(p3non), "ms"}
	}
	if d := m.res.Daemon; d != nil {
		byClass := map[string][]float64{}
		var server, overhead, coldWait []float64
		for _, s := range ok {
			rtt := float64(s.LatencyNS) / 1e6
			byClass[s.Class] = append(byClass[s.Class], rtt)
			server = append(server, s.ServerMS)
			switch s.Class {
			case classWarm:
				overhead = append(overhead, rtt-s.ServerMS)
			case classCold:
				coldWait = append(coldWait, rtt-s.ServerMS)
			}
		}
		out["warm_p50_ms"] = metric{median(byClass[classWarm]), "ms"}
		out["warm_p90_ms"] = metric{quantile(byClass[classWarm], 0.9), "ms"}
		out["primepard.warm_p99_ms"] = metric{quantile(byClass[classWarm], 0.99), "ms"}
		out["cold_p50_ms"] = metric{median(byClass[classCold]), "ms"}
		out["primepard.pipeline_ms"] = metric{median(byClass[classPipeline]), "ms"}
		out["primepard.server_ms"] = metric{median(server), "ms"}
		out["primepard.overhead_ms"] = metric{median(overhead), "ms"}
		out["primepard.queue_wait_ms"] = metric{median(coldWait), "ms"}
		out["primepard.shutdown_save_s"] = metric{d.ShutdownSaveS, "s"}
		out["core.cache.load_s"] = metric{d.LoadS, "s"}
		out["core.cache.save_s"] = metric{d.SaveS, "s"}
	}
	return out
}
