// Command primepar searches the optimal spatial-temporal tensor partition
// strategy for a transformer model on a described cluster, prints it in the
// paper's 𝒫 notation, and simulates one training iteration.
//
// Usage:
//
//	primepar -model OPT-175B -gpus 16 -per-node 4
//	primepar -model Llama2-70B -gpus 32 -compare
//	primepar -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/primepar"
)

func main() {
	var (
		modelName = flag.String("model", "OPT-6.7B", "model name (see -list)")
		gpus      = flag.Int("gpus", 8, "number of devices (power of two)")
		perNode   = flag.Int("per-node", 4, "devices per node")
		profile   = flag.String("profile", "v100-cluster", "machine preset (see -list)")
		topology  = flag.String("topology", "", "override the profile's interconnect shape (switch, torus-2d)")
		links     = flag.String("links", "", "custom link hierarchy, innermost first: name:width:bandwidth:latency,... (width in devices, \"rest\" on the last tier absorbs the remainder), e.g. nvlink:4:300e9:5e-6,fabric:rest:25e9:15e-6")
		batch     = flag.Int("batch", 0, "micro-batch override (0 = model default)")
		alpha     = flag.Float64("alpha", 1e-12, "latency↔memory weight of Eq. 7 (s/byte)")
		spatial   = flag.Bool("spatial-only", false, "restrict to conventional partition-by-dimension")
		compare   = flag.Bool("compare", false, "also evaluate Megatron-LM and the spatial-only optimum")
		list      = flag.Bool("list", false, "list available models and exit")
		savePath  = flag.String("save", "", "write the searched plan to this JSON file")
		loadPath  = flag.String("load", "", "load a plan from JSON instead of searching")
		tracePath = flag.String("trace", "", "write a Chrome trace of the simulated iteration")
		timeline  = flag.Bool("timeline", false, "print an ASCII kernel timeline")
		explain   = flag.Bool("explain", false, "print per-operator cost attribution")
	)
	flag.Parse()

	if *list {
		for _, m := range primepar.Models() {
			fmt.Printf("%-12s layers=%-3d hidden=%-6d heads=%-4d seq=%-5d params≈%.3g\n",
				m.Name, m.Layers, m.Hidden, m.Heads, m.SeqLen, m.Params())
		}
		fmt.Println()
		for _, p := range primepar.Profiles() {
			extra := ""
			if len(p.Links) > 0 {
				extra = fmt.Sprintf("  link tiers=%d", len(p.Links))
			}
			if len(p.Classes) > 0 {
				extra += fmt.Sprintf("  compute classes=%d", len(p.Classes))
			}
			fmt.Printf("%-16s topology=%-8s flops=%.3g  intra=%.3gB/s inter=%.3gB/s%s\n",
				p.Name, p.Topology, p.FLOPs, p.IntraBW, p.InterBW, extra)
		}
		return
	}

	var plan *primepar.Plan
	var cfg primepar.Config
	var cluster *primepar.Cluster
	if *loadPath != "" {
		var err error
		plan, err = primepar.LoadPlan(*loadPath)
		if err != nil {
			fatal(err)
		}
		cfg, cluster = plan.Model, plan.Cluster
		fmt.Printf("loaded plan from %s\n", *loadPath)
	} else {
		var err error
		cfg, err = primepar.ModelByName(*modelName)
		if err != nil {
			fatal(err)
		}
		if *batch > 0 {
			cfg = cfg.WithBatch(*batch)
		}
		prof, err := primepar.ProfileByName(*profile)
		if err != nil {
			fatal(err)
		}
		if *topology != "" {
			topo, err := primepar.ParseTopology(*topology)
			if err != nil {
				fatal(err)
			}
			prof.Topology = topo
		}
		if *links != "" {
			tiers, err := primepar.ParseLinksSpec(*links)
			if err != nil {
				fatal(err)
			}
			prof.Links = tiers
			prof.Name += "+custom-links"
		}
		cluster, err = primepar.NewClusterWithProfile(*gpus, *perNode, prof)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		plan, err = primepar.Search(cfg, cluster, primepar.Options{Alpha: *alpha, SpatialOnly: *spatial})
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan.Describe())
		fmt.Printf("  search time: %s\n\n", time.Since(start))
	}
	if *savePath != "" {
		if err := plan.Save(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("plan saved to %s\n", *savePath)
	}
	rep, err := plan.Report()
	if err != nil {
		fatal(err)
	}
	for _, w := range rep.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	if len(rep.Warnings) > 0 {
		fmt.Println()
	}
	tokens := plan.TokensPerIteration()
	printReport("PrimePar", rep.Sim, tokens)
	if *timeline {
		fmt.Println(trace.ASCII(rep.Sim.Segments, 100))
	}
	if *explain {
		fmt.Println(rep.Attribution())
	}
	if *tracePath != "" {
		data, err := trace.ChromeJSON(rep.Sim.Segments)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("Chrome trace written to %s (open in chrome://tracing)\n", *tracePath)
	}

	if *compare {
		mega, err := primepar.MegatronPlan(cfg, cluster, -1)
		if err != nil {
			fatal(err)
		}
		mrep := simulated(mega)
		printReport("Megatron-LM (best d)", mrep, tokens)

		alpa, err := primepar.Search(cfg, cluster, primepar.Options{Alpha: *alpha, SpatialOnly: true})
		if err != nil {
			fatal(err)
		}
		printReport("Spatial-only optimum (Alpa-like)", simulated(alpa), tokens)

		fmt.Printf("PrimePar speedup vs Megatron-LM: %.2fx, peak memory ratio: %.2f\n",
			rep.Sim.Throughput(tokens)/mrep.Throughput(tokens),
			rep.PeakMemoryBytes/mrep.PeakMemoryBytes)
	}
}

// simulated returns the simulated iteration of a comparison plan.
func simulated(p *primepar.Plan) *primepar.Report {
	rep, err := p.Report()
	if err != nil {
		fatal(err)
	}
	return rep.Sim
}

func printReport(name string, r *primepar.Report, tokens float64) {
	fmt.Printf("%s — simulated training iteration:\n", name)
	fmt.Printf("  iteration:   %s  (%.0f tokens/s)\n", report.Seconds(r.IterationTime), r.Throughput(tokens))
	fmt.Printf("  compute:     %s\n", report.Seconds(r.Compute))
	fmt.Printf("  all-reduce:  %s  (%.1f%% of iteration)\n", report.Seconds(r.Collective), 100*r.CollectiveShare())
	fmt.Printf("  ring p2p:    %s total, %s exposed\n", report.Seconds(r.RingTotal), report.Seconds(r.RingExposed))
	fmt.Printf("  resharding:  %s\n", report.Seconds(r.Redistribution))
	fmt.Printf("  peak memory: %s per device\n\n", report.Bytes(r.PeakMemoryBytes))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "primepar:", err)
	os.Exit(1)
}
