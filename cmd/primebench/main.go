// Command primebench regenerates the paper's evaluation artifacts — every
// figure and table of §6 — on the simulated cluster and prints them as text
// tables.
//
// Usage:
//
//	primebench                 # run everything (several minutes at 32 GPUs)
//	primebench -exp fig7       # one experiment
//	primebench -exp fig7 -quick
//	primebench -serve-addr localhost:7133 -exp table2   # Table 2 via a daemon
//	primebench -serve-addr localhost:7133 -burst 16     # admission burst demo
//	primebench -plan3d                                  # joint-vs-grid 3D planning curve
//	primebench -plan3d -check-golden golden/plan3d_digest.json
//
// Experiments: fig2a fig2b fig4 table1 fig7 fig8 fig9 fig10 table2 ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/model"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (fig2a, fig2b, fig4, table1, fig7, fig8, fig9, fig10, table2, ablations, sweeps, all)")
		quick      = flag.Bool("quick", false, "reduced sweep (2 models, scales 4–8) for smoke runs")
		benchOut   = flag.String("bench-out", "", "where -exp table2 writes its JSON artifact (empty: no artifact)")
		goldenOut  = flag.String("write-golden", "", "with -exp table2 or -plan3d: write strategy digests to this file")
		goldenIn   = flag.String("check-golden", "", "with -exp table2 or -plan3d: fail if strategy digests diverge from this file")
		plan3dFlag = flag.Bool("plan3d", false, "joint spatial-temporal planning curve: the best uniform (p,d,m) grid point vs one joint Plan3D per model/scale — fails if joint is ever worse than grid; honors -write-golden/-check-golden with joint-plan digests")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		cacheDir   = flag.String("cache-dir", "", "persist the cross-call search cache in this directory: load it (if present and valid) before running, save it back after; stale or corrupt files fall back to a cold cache")
		reqWarm    = flag.Bool("require-warm", false, "with -exp table2: fail unless every search was served entirely from the cross-call cache (used by CI's warm-restart check)")
		serveAddr  = flag.String("serve-addr", "", "with -exp table2 or -burst: talk to a primepard daemon at this address instead of searching in-process")
		burst      = flag.Int("burst", 0, "with -serve-addr: closed-loop burst mode — this many concurrent clients fire cold /v1/plan requests and the run verifies the daemon's admission contract (sheds carry 503 + Retry-After, warm traffic stays zero-work)")
		burstIters = flag.Int("burst-iters", 1, "cold requests per burst client")
		profFlag   = flag.String("profile", "", "machine preset the experiments run on (v100-cluster, a100-cluster, tpuv4-torus, mixed-a100-v100, a100-superpod; empty = the paper's V100 testbed). With -serve-addr the profile is sent on every /v1/plan.")
		topoFlag   = flag.String("topology", "", "override the profile's interconnect shape (switch, torus-2d)")
		linksFlag  = flag.String("links", "", "custom link hierarchy, innermost first: name:width:bandwidth:latency,... (width in devices, \"rest\" on the last tier), e.g. nvlink:4:300e9:5e-6,fabric:rest:25e9:15e-6")
	)
	flag.Parse()

	if *burst > 0 {
		if *serveAddr == "" {
			fmt.Fprintln(os.Stderr, "primebench: -burst requires -serve-addr")
			os.Exit(2)
		}
		if *burstIters < 1 {
			fmt.Fprintln(os.Stderr, "primebench: -burst-iters must be ≥ 1")
			os.Exit(2)
		}
		check(runBurst(*serveAddr, *burst, *burstIters))
		return
	}
	if *serveAddr != "" && *exp != "table2" {
		fmt.Fprintln(os.Stderr, "primebench: -serve-addr requires -exp table2 (or -burst)")
		os.Exit(2)
	}

	if *cacheDir != "" {
		if err := core.DefaultSearchCache.Load(*cacheDir); err != nil {
			if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "primebench: cache load failed (%v), starting cold\n", err)
			}
		} else {
			fmt.Printf("loaded search cache from %s (%d plans, %.3f MB)\n\n", *cacheDir, core.DefaultSearchCache.PlanEntries(), cacheFileMB(*cacheDir))
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC()
			check(pprof.Lookup("allocs").WriteTo(f, 0))
			check(f.Close())
		}()
	}

	setup := experiments.DefaultSetup()
	if *quick {
		setup = experiments.QuickSetup()
	}
	if *profFlag != "" {
		prof, err := device.ProfileByName(*profFlag)
		check(err)
		setup.Profile = prof
	}
	if *topoFlag != "" {
		topo, err := device.ParseTopology(*topoFlag)
		check(err)
		if topo == device.Torus2D && setup.Profile.TorusBW <= 0 {
			check(fmt.Errorf("profile %q does not parameterize a torus link; use -profile tpuv4-torus or omit -topology", setup.Profile.Name))
		}
		setup.Profile.Topology = topo
	}
	if *linksFlag != "" {
		tiers, err := device.ParseLinksSpec(*linksFlag)
		check(err)
		setup.Profile.Links = tiers
		// Same suffix convention as the daemon: a custom hierarchy is a
		// distinct machine, and digests listings must say so.
		setup.Profile.Name += "+custom-links"
	}

	run := func(id string) bool { return *exp == "all" || *exp == id }
	start := time.Now()

	if *plan3dFlag {
		scales := []int{8, 16, 32}
		if *quick {
			scales = []int{8}
		}
		rows, table, err := experiments.Plan3DCurve(setup, scales, 64, 2)
		check(err)
		fmt.Println(table)
		fmt.Println(experiments.Plan3DPhaseTable(rows))
		if *goldenOut != "" {
			check(experiments.WriteGoldenPlan3D(*goldenOut, rows))
			fmt.Printf("wrote %s (golden joint-plan digests)\n\n", *goldenOut)
		}
		if *goldenIn != "" {
			check(experiments.CheckGoldenPlan3D(*goldenIn, rows))
			fmt.Printf("joint-plan digests match %s\n\n", *goldenIn)
		}
		fmt.Printf("primebench finished in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if run("fig2a") {
		_, table, err := experiments.Fig2a(setup)
		check(err)
		fmt.Println(table)
	}
	if run("fig2b") {
		_, table, err := experiments.Fig2b(setup)
		check(err)
		fmt.Println(table)
	}
	if run("fig4") {
		_, out, err := experiments.Fig4(setup)
		check(err)
		fmt.Println(out)
	}
	if run("table1") {
		out, err := experiments.Table1(setup)
		check(err)
		fmt.Println(out)
	}
	if run("fig7") || run("fig8") {
		data, err := experiments.RunThroughputSweep(setup)
		check(err)
		if run("fig7") {
			fmt.Println(data.Fig7Table())
			last := setup.Scales[len(setup.Scales)-1]
			fmt.Printf("Geo-mean PrimePar speedup over Megatron-LM at %d GPUs: %.2fx\n\n",
				last, data.GeoMeanSpeedup(last))
		}
		if run("fig8") {
			fmt.Println(data.Fig8Table())
		}
	}
	if run("fig9") {
		_, table, err := experiments.Fig9(setup)
		check(err)
		fmt.Println(table)
	}
	if run("fig10") {
		devices := 32
		if *quick {
			devices = 8
		}
		_, table, err := experiments.Fig10(setup, devices, 64, 2)
		check(err)
		fmt.Println(table)
	}
	if run("table2") {
		var (
			rows  []experiments.Table2Row
			table string
			err   error
		)
		if *serveAddr != "" {
			rows, table, err = remoteTable2(*serveAddr, setup)
		} else {
			rows, table, err = experiments.Table2(setup)
		}
		check(err)
		fmt.Println(table)
		var scanned int64
		for _, r := range rows {
			scanned += r.Stats.EntriesScanned
		}
		fmt.Printf("min-plus products: relaxed %d cells\n\n", scanned)
		if *reqWarm {
			check(requireWarm(rows))
			fmt.Println("warm-restart check passed: every search served from the cross-call cache")
		}
		if *serveAddr == "" && *benchOut != "" {
			// Remote timings measure the daemon, not this process; keep them
			// out of the local benchmark artifact.
			check(experiments.WriteTable2JSON(*benchOut, rows))
			fmt.Printf("wrote %s (search stats + before/after timings)\n\n", *benchOut)
		}
		if *goldenOut != "" {
			check(experiments.WriteGoldenDigests(*goldenOut, rows))
			fmt.Printf("wrote %s (golden strategy digests)\n\n", *goldenOut)
		}
		if *goldenIn != "" {
			check(experiments.CheckGoldenDigests(*goldenIn, rows))
			fmt.Printf("strategy digests match %s\n\n", *goldenIn)
		}
	}
	if run("ablations") {
		cfg := model.OPT175B()
		scale := 8

		_, _, t1, err := experiments.AblationNoOverlap(setup, cfg, scale)
		check(err)
		fmt.Println(t1)

		_, t2, err := experiments.AblationAlphaSweep(setup, cfg, scale, []float64{0, 1e-12, 1e-10, 1e-9})
		check(err)
		fmt.Println(t2)

		t3, err := experiments.AblationSpatialOnly(setup, cfg)
		check(err)
		fmt.Println(t3)

		t4, err := experiments.AblationSegmentedVsExhaustive(setup, model.OPT6B7())
		check(err)
		fmt.Println(t4)

		t5, err := experiments.AblationTopology(setup, cfg, scale)
		check(err)
		fmt.Println(t5)

		t6, err := experiments.AblationZeRO(setup, model.Llama2_70B(), scale)
		check(err)
		fmt.Println(t6)

		t7, err := experiments.DiscussionTorus(setup, cfg, 16)
		check(err)
		fmt.Println(t7)

		_, t8, err := experiments.FullModel(setup, model.OPT6B7(), scale)
		check(err)
		fmt.Println(t8)

		t9, err := experiments.AblationRecompute(setup, model.OPT175B(), scale)
		check(err)
		fmt.Println(t9)

		t10, err := experiments.HardwareEvolution(setup, model.OPT175B(), 16)
		check(err)
		fmt.Println(t10)
	}
	if run("sweeps") {
		scale := 8
		if !*quick {
			scale = 16
		}
		_, t1, err := experiments.SweepBatch(setup, model.OPT175B(), scale, []int{4, 8, 16, 32})
		check(err)
		fmt.Println(t1)
		_, t2, err := experiments.SweepSeqLen(setup, model.OPT175B(), scale, []int{512, 1024, 2048, 4096})
		check(err)
		fmt.Println(t2)
		t3, err := experiments.RealTokenThroughput(setup, model.OPT175B(), scale)
		check(err)
		fmt.Println(t3)
	}

	if !anyRan(*exp) {
		fmt.Fprintf(os.Stderr, "primebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *cacheDir != "" {
		check(core.DefaultSearchCache.Save(*cacheDir))
		fmt.Printf("saved search cache to %s (%d plans, %.3f MB)\n", *cacheDir, core.DefaultSearchCache.PlanEntries(), cacheFileMB(*cacheDir))
	}
	fmt.Printf("primebench finished in %s\n", time.Since(start).Round(time.Millisecond))
}

// requireWarm verifies a fully warm run: no node evaluations or edge-matrix
// builds anywhere, and at least one cross-call hit to prove the cache was
// actually consulted. A plan hit runs no node pass, so it is proof on its
// own.
func requireWarm(rows []experiments.Table2Row) error {
	for _, r := range rows {
		if r.Stats.NodeEvals != 0 || r.Stats.EdgeMatsBuilt != 0 {
			return fmt.Errorf("require-warm: %s@%d recomputed %d node evals, %d edge matrices",
				r.Model, r.Scale, r.Stats.NodeEvals, r.Stats.EdgeMatsBuilt)
		}
		if r.Stats.CrossCallNodeHits+r.Stats.CrossCallEdgeHits+r.Stats.CrossCallPlanHits == 0 {
			return fmt.Errorf("require-warm: %s@%d reports no cross-call hits", r.Model, r.Scale)
		}
	}
	return nil
}

// cacheFileMB returns the size of the cache file in dir in MB, or 0 when it
// cannot be read.
func cacheFileMB(dir string) float64 {
	fi, err := os.Stat(filepath.Join(dir, core.CacheFileName))
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / 1e6
}

func anyRan(exp string) bool {
	known := "all fig2a fig2b fig4 table1 fig7 fig8 fig9 fig10 table2 ablations sweeps"
	for _, k := range strings.Fields(known) {
		if exp == k {
			return true
		}
	}
	return false
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "primebench:", err)
		os.Exit(1)
	}
}
