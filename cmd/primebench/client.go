// Remote client mode: -serve-addr points the table2 sweep at a running
// primepard daemon instead of searching in-process. Each (structure, scale)
// cell becomes a POST /v1/plan; the daemon's shared cross-call cache then
// plays the role DefaultSearchCache plays locally, so the second sweep
// against one daemon is fully warm. The rows carry the daemon's digests and
// search stats, so -check-golden and -require-warm work unchanged against a
// remote server.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/report"
)

// planRequest and planResponse mirror primepard's wire types
// (cmd/primepard/server.go); only the fields this client uses are declared,
// and the daemon's DisallowUnknownFields applies to requests, not responses,
// so the two commands can evolve their optional fields independently.
type planRequest struct {
	Model          string     `json:"model"`
	Devices        int        `json:"devices"`
	DevicesPerNode int        `json:"devices_per_node,omitempty"`
	Profile        string     `json:"profile,omitempty"`
	Topology       string     `json:"topology,omitempty"`
	Links          []linkSpec `json:"links,omitempty"`
	Alpha          float64    `json:"alpha,omitempty"`
	Batch          int        `json:"batch,omitempty"`
	Priority       int        `json:"priority,omitempty"`
	DeadlineMS     int        `json:"deadline_ms,omitempty"`
}

// linkSpec mirrors primepard's custom-link wire tier (island width in
// devices, -1 = remainder on the outermost tier).
type linkSpec struct {
	Name      string  `json:"name,omitempty"`
	Devices   int     `json:"devices"`
	Bandwidth float64 `json:"bandwidth"`
	Latency   float64 `json:"latency"`
}

// wireMachine renders a local Setup profile as the daemon's
// profile/topology/links request fields: the preset name (custom-link
// suffix stripped — the daemon re-appends it), a topology override only
// when it differs from the preset's own, and the Links list converted from
// bit counts back to island widths.
func wireMachine(p device.Profile) (profile, topology string, links []linkSpec) {
	profile = strings.TrimSuffix(p.Name, "+custom-links")
	if base, err := device.ProfileByName(profile); err == nil && base.Topology != p.Topology {
		topology = p.Topology.String()
	}
	for _, t := range p.Links {
		w := -1
		if t.Bits != -1 {
			w = 1 << t.Bits
		}
		links = append(links, linkSpec{Name: t.Name, Devices: w, Bandwidth: t.Bandwidth, Latency: t.Latency})
	}
	return profile, topology, links
}

type planResponse struct {
	Digest    string           `json:"digest"`
	Stats     core.SearchStats `json:"stats"`
	ElapsedMS float64          `json:"elapsed_ms"`
	Deduped   bool             `json:"deduped,omitempty"`
}

// errorEnvelope mirrors the daemon's uniform non-200 body.
type errorEnvelope struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Retryable    bool   `json:"retryable"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// httpClient is the one client every remote mode shares. A fresh
// &http.Client{} per call rides http.DefaultTransport, whose
// DefaultMaxIdleConnsPerHost of 2 forces a burst of N concurrent clients to
// churn TCP connections — the handshakes then pollute warm-probe latency
// percentiles with connection setup that has nothing to do with the daemon.
// One shared transport with a per-host idle pool sized for -burst keeps every
// worker on a kept-alive connection.
var httpClient = newHTTPClient()

func newHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no global cap; the per-host pool is the limit
	tr.MaxIdleConnsPerHost = 64
	return &http.Client{Timeout: 20 * time.Minute, Transport: tr}
}

// normalizeAddr accepts host:port or a full URL.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}

// remoteTable2 runs the Table 2 sweep (the same three structures
// experiments.Table2 uses, at setup's scales) against a primepard daemon.
// Time is the SERVER's search wall time, not the round trip, so the table
// stays comparable with local runs.
func remoteTable2(addr string, setup experiments.Setup) ([]experiments.Table2Row, string, error) {
	addr = normalizeAddr(addr)
	structures := []model.Config{model.OPT175B(), model.Llama2_70B(), model.BLOOM176B()}
	client := httpClient
	profile, topology, links := wireMachine(setup.Profile)
	var rows []experiments.Table2Row
	t := report.NewTable(fmt.Sprintf("Table 2 — Optimization time (ms, served by %s)", addr),
		"model", "4", "8", "16", "32")
	for _, cfg := range structures {
		cells := []interface{}{cfg.Name}
		for _, scale := range setup.Scales {
			resp, err := postPlan(client, addr, planRequest{
				Model:          cfg.Name,
				Devices:        scale,
				DevicesPerNode: setup.DevicesPerNode,
				Profile:        profile,
				Topology:       topology,
				Links:          links,
				Alpha:          setup.Alpha,
			})
			if err != nil {
				return nil, "", fmt.Errorf("%s@%d: %w", cfg.Name, scale, err)
			}
			rows = append(rows, experiments.Table2Row{
				Model:  cfg.Name,
				Scale:  scale,
				Time:   time.Duration(resp.ElapsedMS * float64(time.Millisecond)),
				Stats:  resp.Stats,
				Digest: resp.Digest,
			})
			cells = append(cells, fmt.Sprintf("%.1f", resp.ElapsedMS))
		}
		for len(cells) < 5 {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	return rows, t.String(), nil
}

// postPlanRaw performs one /v1/plan exchange and returns the undecoded
// pieces: status, headers and body.
func postPlanRaw(client *http.Client, addr string, req planRequest) (int, http.Header, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, nil, err
	}
	httpResp, err := client.Post(addr+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 8<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return httpResp.StatusCode, httpResp.Header, data, nil
}

// postPlan is the simple success-or-error client: any non-200 becomes an
// error carrying the envelope's code and message.
func postPlan(client *http.Client, addr string, req planRequest) (*planResponse, error) {
	status, _, data, err := postPlanRaw(client, addr, req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		var e errorEnvelope
		if json.Unmarshal(data, &e) == nil && e.Code != "" {
			return nil, fmt.Errorf("server returned %d %s: %s", status, e.Code, e.Message)
		}
		return nil, fmt.Errorf("server returned %d", status)
	}
	var resp planResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("bad /v1/plan response: %w", err)
	}
	return &resp, nil
}
