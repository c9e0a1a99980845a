package primepar

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/partition"
)

// planFile is the on-disk JSON representation of a Plan: everything needed
// to redeploy the strategy on an equivalent cluster.
type planFile struct {
	FormatVersion int     `json:"format_version"`
	System        string  `json:"system"`
	ModelName     string  `json:"model"`
	Batch         int     `json:"batch"`
	Devices       int     `json:"devices"`
	PerNode       int     `json:"devices_per_node"`
	Profile       Profile `json:"profile"`
	PredictedCost float64 `json:"predicted_cost"`
	// LayerCost and Digest were added within format version 1: both are
	// optional on read (older files omit them), so the version stays 1.
	LayerCost float64         `json:"layer_cost,omitempty"`
	Digest    string          `json:"digest,omitempty"`
	Seqs      []partition.Seq `json:"strategies"`
}

const planFormatVersion = 1

// Save writes the plan as JSON to path.
func (p *Plan) Save(path string) error {
	pf := planFile{
		FormatVersion: planFormatVersion,
		System:        p.system,
		ModelName:     p.Model.Name,
		Batch:         p.Model.Batch,
		Devices:       p.Cluster.NumDevices,
		PerNode:       p.Cluster.DevicesPerNode,
		Profile:       p.Cluster.Profile,
		PredictedCost: p.PredictedCost,
		LayerCost:     p.LayerCost,
		Digest:        p.Digest(),
		Seqs:          p.Seqs,
	}
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return fmt.Errorf("primepar: encoding plan: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadPlan reads a plan saved with Save, rebuilds the model and cluster it
// was searched for, and validates every strategy against the graph.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("primepar: reading plan: %w", err)
	}
	return decodePlan(data)
}

// decodePlan is LoadPlan after the read: it decodes a saved plan's bytes and
// validates them. Any input yields an error or a plan whose cluster builds;
// the cluster's device count is bounded by device.MaxDevices, so the
// validation's cost is bounded too.
func decodePlan(data []byte) (*Plan, error) {
	var pf planFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("primepar: decoding plan: %w", err)
	}
	if pf.FormatVersion != planFormatVersion {
		return nil, fmt.Errorf("primepar: plan format version %d unsupported (want %d)",
			pf.FormatVersion, planFormatVersion)
	}
	cfg, err := model.ByName(pf.ModelName)
	if err != nil {
		return nil, err
	}
	if pf.Batch > 0 {
		cfg = cfg.WithBatch(pf.Batch)
	}
	cluster, err := NewClusterWithProfile(pf.Devices, pf.PerNode, pf.Profile)
	if err != nil {
		return nil, err
	}
	g, err := model.BuildBlock(cfg)
	if err != nil {
		return nil, err
	}
	if len(pf.Seqs) != len(g.Nodes) {
		return nil, fmt.Errorf("primepar: plan has %d strategies for a %d-node graph",
			len(pf.Seqs), len(g.Nodes))
	}
	for i, s := range pf.Seqs {
		if err := s.Validate(len(g.Nodes[i].Axes), cluster.Bits()); err != nil {
			return nil, fmt.Errorf("primepar: node %d (%s): %w", i, g.Nodes[i].Name, err)
		}
	}
	p := &Plan{
		Model:         cfg,
		Cluster:       cluster,
		Seqs:          pf.Seqs,
		PredictedCost: pf.PredictedCost,
		LayerCost:     pf.LayerCost,
		system:        pf.System,
	}
	// A digest, when present, must match the strategy content exactly — a
	// mismatch means the file was edited or corrupted after Save.
	if pf.Digest != "" {
		if got := p.Digest(); got != pf.Digest {
			return nil, fmt.Errorf("primepar: plan digest mismatch (file %s, content %s): file corrupted or edited",
				pf.Digest, got)
		}
	}
	return p, nil
}
