// The joint 3D planning curve: for every model × device count, the best
// uniform (p,d,m) grid point (the Fig. 10 protocol — per-stage-optimal
// tensor parallelism, ⌈L/p⌉-layer stages) against one joint Plan3D call that
// chooses stage boundaries and per-stage partitions together. The joint
// answer can never be worse — the uniform grid point is always among its
// candidates — and the curve errors out if that contract is violated, so the
// never-worse guarantee is enforced at experiment level too, not just in the
// unit tests. Digests of the joint plans are pinned in CI
// (golden/plan3d_digest.json) the same way the Table 2 strategies are.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/pipeline"
	"repro/internal/report"
)

// Plan3DRow is one (model, devices) cell of the joint-vs-grid curve.
type Plan3DRow struct {
	Model   string
	Devices int
	// GridConfig and GridIteration describe the best uniform grid point.
	GridConfig    pipeline.Config3D
	GridIteration float64
	// JointConfig, JointLayers and JointIteration describe the joint plan.
	JointConfig    pipeline.Config3D
	JointLayers    []int
	JointIteration float64
	// Speedup is grid/joint, ≥ 1 by the never-worse contract.
	Speedup float64
	// Digest fingerprints the joint plan (Plan3D.Digest).
	Digest string
	Stats  pipeline.Plan3DStats
}

// Plan3DCurve runs the joint-vs-grid comparison over s.Models × scales.
func Plan3DCurve(s Setup, scales []int, globalBatch, microbatch int) ([]Plan3DRow, string, error) {
	ctx := context.Background()
	var rows []Plan3DRow
	t := report.NewTable(
		fmt.Sprintf("Joint 3D planning — grid-best vs joint Plan3D (global batch %d, micro-batch %d)", globalBatch, microbatch),
		"model", "devices", "grid best", "grid iter (s)", "joint", "stage layers", "joint iter (s)", "grid/joint")
	for _, cfg := range s.Models {
		for _, devices := range scales {
			full := s.cluster(devices)
			opt := pipeline.NewOptimizer(full)
			opt.Alpha = &s.Alpha

			var grid *pipeline.Plan3D
			for _, c3 := range pipeline.AllConfigs(devices, cfg.Layers, globalBatch, microbatch) {
				c3 := c3
				p3, err := opt.Plan3D(ctx, pipeline.Plan3DRequest{
					Model: cfg, System: pipeline.PrimePar, Config: &c3})
				if err != nil {
					continue // an infeasible grid point sheds itself, like Fig. 10
				}
				if grid == nil || p3.IterationTime < grid.IterationTime {
					grid = p3
				}
			}
			if grid == nil {
				return nil, "", fmt.Errorf("experiments: no feasible grid point for %s on %d devices", cfg.Name, devices)
			}
			joint, err := opt.Plan3D(ctx, pipeline.Plan3DRequest{
				Model: cfg, System: pipeline.PrimePar,
				GlobalBatch: globalBatch, Microbatch: microbatch})
			if err != nil {
				return nil, "", fmt.Errorf("experiments: joint Plan3D for %s on %d devices: %w", cfg.Name, devices, err)
			}
			if joint.IterationTime > grid.IterationTime {
				return nil, "", fmt.Errorf("experiments: joint plan WORSE than grid for %s on %d devices: %v > %v (never-worse contract broken)",
					cfg.Name, devices, joint.IterationTime, grid.IterationTime)
			}
			row := Plan3DRow{
				Model:          cfg.Name,
				Devices:        devices,
				GridConfig:     grid.Config,
				GridIteration:  grid.IterationTime,
				JointConfig:    joint.Config,
				JointLayers:    joint.StageLayers(),
				JointIteration: joint.IterationTime,
				Speedup:        grid.IterationTime / joint.IterationTime,
				Digest:         joint.Digest(),
				Stats:          joint.Stats,
			}
			rows = append(rows, row)
			t.AddRow(cfg.Name, fmt.Sprintf("%d", devices),
				grid.Config.String(), fmt.Sprintf("%.4f", grid.IterationTime),
				joint.Config.String(), fmt.Sprint(row.JointLayers),
				fmt.Sprintf("%.4f", joint.IterationTime),
				fmt.Sprintf("%.4f", row.Speedup))
		}
	}
	return rows, t.String(), nil
}

// Plan3DPhaseTable renders where each joint call's wall time went: the
// per-stage tensor-parallel searches, the per-stage simulations, the cut
// enumeration and the 1F1B scoring of the candidate cuts (Plan3DStats).
func Plan3DPhaseTable(rows []Plan3DRow) string {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	t := report.NewTable("Joint Plan3D phase times (ms)",
		"model", "devices", "elapsed", "stage search", "stage sim", "cut enum", "1F1B schedule")
	for _, r := range rows {
		st := r.Stats
		t.AddRow(r.Model, fmt.Sprintf("%d", r.Devices), ms(st.Elapsed),
			ms(st.StageSearchTime), ms(st.StageSimTime), ms(st.CutEnumTime), ms(st.ScheduleTime))
	}
	return t.String()
}

func plan3dDigestMap(rows []Plan3DRow) map[string]string {
	out := make(map[string]string, len(rows))
	for _, r := range rows {
		out[goldenKey(r.Model, r.Devices)] = r.Digest
	}
	return out
}

// WriteGoldenPlan3D writes the curve's joint-plan digests as sorted JSON.
func WriteGoldenPlan3D(path string, rows []Plan3DRow) error {
	out, err := json.MarshalIndent(plan3dDigestMap(rows), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// CheckGoldenPlan3D compares the curve's digests against a golden file,
// naming every divergent cell. Golden cells outside this run (e.g. scales a
// -quick run never reaches) are skipped, not failures.
func CheckGoldenPlan3D(path string, rows []Plan3DRow) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("experiments: golden file %s: %w", path, err)
	}
	got := plan3dDigestMap(rows)
	var bad []string
	matched := 0
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			continue
		}
		matched++
		if g != w {
			bad = append(bad, fmt.Sprintf("%s: got %s, want %s", k, g, w))
		}
	}
	if matched == 0 {
		return fmt.Errorf("experiments: golden file %s covers none of the %d curve cells", path, len(got))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		msg := "experiments: joint 3D plans diverged from golden digests:"
		for _, b := range bad {
			msg += "\n  " + b
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
