// Portfolio sweep mode (-sweep, with -serve-addr): the end-to-end check of
// the daemon's /v1/plan/sweep contract. The run plans every device count of a
// scale curve individually first — measuring what the points honestly cost as
// independent /v1/plan requests — then re-plans the same curve as ONE sweep
// and verifies the portfolio promise: every point's digest byte-identical to
// its individually planned counterpart, and the sweep's total DP work
// strictly below what the independent plans paid (the shared SearchCache is
// doing its job). Any violation exits nonzero, so CI can pin the contract by
// just running this mode against a fresh daemon.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Wire mirrors of the daemon's sweep types (cmd/primepard/sweep.go); like
// planRequest/planResponse, only the consumed fields are declared.
type sweepPoint struct {
	Devices int `json:"devices,omitempty"`
}

type sweepRequest struct {
	planRequest
	Points []sweepPoint `json:"points"`
}

type sweepPointResult struct {
	Point     sweepPoint     `json:"point"`
	DeltaDims []string       `json:"delta_dims"`
	Plan      *planResponse  `json:"plan"`
	Error     *errorEnvelope `json:"error"`
}

type sweepResponse struct {
	Results   []sweepPointResult `json:"results"`
	Planned   int                `json:"planned"`
	Failed    int                `json:"failed"`
	Totals    core.SearchStats   `json:"totals"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// parseSweepSpec turns "4,8,16,32" into device counts.
func parseSweepSpec(spec string) ([]int, error) {
	var points []int
	for _, f := range strings.Split(spec, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || d < 1 {
			return nil, fmt.Errorf("bad -sweep point %q (want a positive device count)", f)
		}
		points = append(points, d)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("-sweep needs at least one device count")
	}
	return points, nil
}

// postSweep performs one /v1/plan/sweep exchange.
func postSweep(client *http.Client, addr string, req sweepRequest) (*sweepResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpResp, err := client.Post(addr+"/v1/plan/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		var e errorEnvelope
		if json.Unmarshal(data, &e) == nil && e.Code != "" {
			return nil, fmt.Errorf("server returned %d %s: %s", httpResp.StatusCode, e.Code, e.Message)
		}
		return nil, fmt.Errorf("server returned %d", httpResp.StatusCode)
	}
	var resp sweepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("bad /v1/plan/sweep response: %w", err)
	}
	return &resp, nil
}

// runSweep drives the portfolio check against a daemon.
func runSweep(addr, modelName, spec string) error {
	addr = normalizeAddr(addr)
	points, err := parseSweepSpec(spec)
	if err != nil {
		return err
	}

	// Phase 1: each point as an independent /v1/plan. On a fresh daemon these
	// are the honest cold costs; on a warmed one they are already cheap and
	// the sweep below must then be entirely zero-work.
	fmt.Printf("Sweep check: %s at %v devices against %s\n", modelName, points, addr)
	individual := make([]*planResponse, len(points))
	var coldEvals, coldEdges, coldTables, coldScanned int64
	for i, d := range points {
		resp, err := postPlan(httpClient, addr, planRequest{Model: modelName, Devices: d})
		if err != nil {
			return fmt.Errorf("individual plan %s@%d: %w", modelName, d, err)
		}
		individual[i] = resp
		coldEvals += int64(resp.Stats.NodeEvals)
		coldEdges += int64(resp.Stats.EdgeMatsBuilt)
		coldTables += int64(resp.Stats.SegTablesBuilt)
		coldScanned += resp.Stats.EntriesScanned
		fmt.Printf("  plan  %2d devices: %8.1fms  node_evals=%-6d digest=%s\n",
			d, resp.ElapsedMS, resp.Stats.NodeEvals, resp.Digest[:12])
	}

	// Phase 2: the same curve as one portfolio.
	req := sweepRequest{planRequest: planRequest{Model: modelName, Devices: points[0]}}
	for _, d := range points {
		req.Points = append(req.Points, sweepPoint{Devices: d})
	}
	sw, err := postSweep(httpClient, addr, req)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	var violations []string
	if sw.Planned != len(points) || sw.Failed != 0 {
		violations = append(violations, fmt.Sprintf(
			"sweep planned %d / failed %d of %d points", sw.Planned, sw.Failed, len(points)))
	}
	for i, r := range sw.Results {
		if r.Plan == nil {
			msg := "no envelope"
			if r.Error != nil {
				msg = fmt.Sprintf("%s: %s", r.Error.Code, r.Error.Message)
			}
			violations = append(violations, fmt.Sprintf("point %d devices: %s", points[i], msg))
			continue
		}
		fmt.Printf("  sweep %2d devices: %8.1fms  node_evals=%-6d digest=%s\n",
			points[i], r.Plan.ElapsedMS, r.Plan.Stats.NodeEvals, r.Plan.Digest[:12])
		if r.Plan.Digest != individual[i].Digest {
			violations = append(violations, fmt.Sprintf(
				"point %d devices: sweep digest %s != individually planned %s",
				points[i], r.Plan.Digest, individual[i].Digest))
		}
	}

	// The work contract. Individuals did cold work → the sweep, sharing the
	// daemon's cache, must beat their total and prove it hit the cache.
	// Individuals were already warm → the sweep has nothing left to compute.
	coldWork := coldEvals + coldEdges + coldTables
	sweepWork := int64(sw.Totals.NodeEvals + sw.Totals.EdgeMatsBuilt + sw.Totals.SegTablesBuilt)
	fmt.Printf("  totals: individual work %d (evals+edges+tables), sweep work %d, sweep cache hits %d\n",
		coldWork, sweepWork,
		sw.Totals.CrossCallNodeHits+sw.Totals.CrossCallEdgeHits+sw.Totals.CrossCallTableHits+sw.Totals.CrossCallPlanHits)
	fmt.Printf("  scans:  individual entries_scanned %d, sweep entries_scanned %d\n",
		coldScanned, sw.Totals.EntriesScanned)
	if coldWork > 0 {
		if sweepWork >= coldWork {
			violations = append(violations, fmt.Sprintf(
				"sweep did %d units of DP work, not less than the %d the independent plans paid",
				sweepWork, coldWork))
		}
		if sw.Totals.CrossCallNodeHits == 0 {
			violations = append(violations, "sweep reports no cross-call node hits after cold individual plans")
		}
		// The same contract at min-plus granularity: the sweep's shared table
		// tier must leave it scanning strictly fewer entries than the
		// independent plans did in total.
		if coldScanned > 0 && sw.Totals.EntriesScanned >= coldScanned {
			violations = append(violations, fmt.Sprintf(
				"sweep scanned %d min-plus entries, not less than the %d the independent plans paid",
				sw.Totals.EntriesScanned, coldScanned))
		}
	} else if sweepWork != 0 {
		violations = append(violations, fmt.Sprintf(
			"individual plans were fully warm yet the sweep recomputed %d units", sweepWork))
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Printf("  VIOLATION: %s\n", v)
		}
		return fmt.Errorf("sweep check found %d violations", len(violations))
	}
	fmt.Println("  sweep contract held: digests byte-identical, portfolio work below independent plans")
	return nil
}
