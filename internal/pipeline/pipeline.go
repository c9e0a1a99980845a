// Package pipeline composes tensor partitioning with pipeline and data
// parallelism — the paper's 3D-parallelism evaluation (§6.4, Fig. 10).
//
// A (p, d, m) configuration splits the machine into p pipeline stages; each
// stage runs d-way data parallelism over m-way tensor (model) parallel
// groups. Following the paper's protocol, the batch dimension is NOT
// partitioned inside the tensor-parallel search (d is controlled
// externally); Megatron and PrimePar differ only in the model-parallel
// strategy of size m.
//
// The schedule model is Megatron's 1F1B (PipeDream-Flush):
//
//	T = (nMicrobatches + p − 1) · (T_stage_microbatch + T_p2p) + T_dp_allreduce
//
// with per-microbatch stage time simulated by internal/sim on the stage's
// tensor-parallel sub-cluster, point-to-point activation hand-off between
// stages, and one gradient all-reduce across the d data-parallel replicas
// per iteration.
package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/device"
)

// System selects the tensor-parallel strategy generator.
type System int

const (
	Megatron System = iota
	PrimePar
)

func (s System) String() string {
	if s == Megatron {
		return "Megatron-LM"
	}
	return "PrimePar"
}

// Config3D is one (p, d, m) point of the Fig. 10 sweep.
type Config3D struct {
	P, D, M int
	// Microbatch is the per-replica micro-batch size (sequences).
	Microbatch int
	// GlobalBatch is the total sequences per training iteration.
	GlobalBatch int
}

// Microbatches returns the 1F1B micro-batch count per replica.
func (c Config3D) Microbatches() int {
	return c.GlobalBatch / (c.D * c.Microbatch)
}

// Validate checks divisibility and machine fit. Every violation is reported,
// joined with "; ", so a caller fixing a hand-written config sees the whole
// list at once instead of peeling errors one at a time.
func (c Config3D) Validate(devices, layers int) error {
	var errs []string
	if c.P*c.D*c.M != devices {
		errs = append(errs, fmt.Sprintf("p·d·m = %d·%d·%d ≠ %d devices", c.P, c.D, c.M, devices))
	}
	for _, v := range []int{c.P, c.D, c.M} {
		if v < 1 || v&(v-1) != 0 {
			errs = append(errs, fmt.Sprintf("(p,d,m)=(%d,%d,%d) must be powers of two", c.P, c.D, c.M))
			break
		}
	}
	if c.P > layers {
		errs = append(errs, fmt.Sprintf("%d stages exceed %d layers", c.P, layers))
	}
	if c.Microbatch < 1 {
		errs = append(errs, fmt.Sprintf("microbatch %d must be ≥ 1", c.Microbatch))
	} else if c.D >= 1 {
		if c.GlobalBatch%(c.D*c.Microbatch) != 0 {
			errs = append(errs, fmt.Sprintf("global batch %d not divisible into %d replicas × microbatch %d",
				c.GlobalBatch, c.D, c.Microbatch))
		} else if c.Microbatches() < 1 {
			errs = append(errs, fmt.Sprintf("global batch %d yields 0 microbatches at %d replicas × microbatch %d",
				c.GlobalBatch, c.D, c.Microbatch))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("pipeline: %s", strings.Join(errs, "; "))
	}
	return nil
}

// String renders the configuration in the paper's (p,d,m) notation.
func (c Config3D) String() string { return fmt.Sprintf("(%d,%d,%d)", c.P, c.D, c.M) }

// AllConfigs enumerates every (p,d,m) with p·d·m = devices and p > 1 (the
// paper's Fig. 10 sweep), ordered by p then d. (*Optimizer).Plan3D searches
// these configurations itself; callers that drive the grid one
// configuration at a time enumerate it here.
func AllConfigs(devices, layers, globalBatch, microbatch int) []Config3D {
	var out []Config3D
	for p := 2; p <= devices; p *= 2 {
		if p > layers {
			break
		}
		for d := 1; d*p <= devices; d *= 2 {
			m := devices / (p * d)
			c := Config3D{P: p, D: d, M: m, Microbatch: microbatch, GlobalBatch: globalBatch}
			if c.Validate(devices, layers) == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// stageCluster models the m tensor-parallel devices of one stage: they are
// the innermost device-ID bits, so at most devicesPerNode of them share a
// node.
func stageCluster(full *device.Cluster, m int) *device.Cluster {
	per := full.DevicesPerNode
	if per > m {
		per = m
	}
	return device.MustCluster(m, per, full.Profile)
}
