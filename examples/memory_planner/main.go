// Memory-planner: sweep the latency↔memory weight α of the paper's Eq. 7 to
// trace the throughput/peak-memory frontier for Llama2-70B on 16 GPUs —
// the joint-optimization knob that lets one machine trade a few percent of
// throughput for fitting a bigger model.
//
//	go run ./examples/memory_planner
package main

import (
	"fmt"
	"log"

	"repro/primepar"
)

func main() {
	cluster, err := primepar.NewCluster(16, 4)
	if err != nil {
		log.Fatal(err)
	}
	cfg := primepar.Llama270B()
	tokens := float64(cfg.Batch) * float64(cfg.SeqLen)

	fmt.Printf("Latency/memory frontier for %s on 16 GPUs (Eq. 7 α sweep):\n\n", cfg.Name)
	fmt.Printf("%-10s %12s %14s %10s\n", "alpha", "tokens/s", "peak memory", "prime?")
	for _, alpha := range []float64{0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9} {
		plan, err := primepar.Search(cfg, cluster, primepar.Options{Alpha: alpha})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := plan.Report()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.0e %12.0f %11.1f GiB %10v\n",
			alpha, rep.Sim.Throughput(tokens), rep.PeakMemoryBytes/(1<<30), plan.UsesPrime())
	}
	fmt.Println("\nLarger α steers the search toward replication-free strategies;")
	fmt.Println("the spatial-temporal primitive keeps memory low at little or no")
	fmt.Println("latency cost, which is why PrimePar wins both axes in Figs. 7–8.")
}
