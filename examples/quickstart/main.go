// Quickstart: search the optimal spatial-temporal partition strategy for
// OPT-6.7B on 8 simulated V100s, print it in the paper's 𝒫 notation, and
// compare one simulated training iteration against the Megatron-LM baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/primepar"
)

func main() {
	cluster, err := primepar.NewCluster(8, 4) // 2 nodes × 4 GPUs
	if err != nil {
		log.Fatal(err)
	}

	cfg := primepar.OPT6B7()
	plan, err := primepar.Search(cfg, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Describe())
	fmt.Printf("uses P_{2^k×2^k} primitive: %v\n\n", plan.UsesPrime())

	rep, err := plan.Report()
	if err != nil {
		log.Fatal(err)
	}
	tokens := plan.TokensPerIteration()
	fmt.Printf("PrimePar:    %7.0f tokens/s, %5.1f GiB peak, all-reduce %.1f%% of iteration\n",
		rep.Sim.Throughput(tokens), rep.PeakMemoryBytes/(1<<30), 100*rep.Sim.CollectiveShare())

	mega, err := primepar.MegatronPlan(cfg, cluster, -1)
	if err != nil {
		log.Fatal(err)
	}
	mrep, err := mega.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Megatron-LM: %7.0f tokens/s, %5.1f GiB peak, all-reduce %.1f%% of iteration\n",
		mrep.Sim.Throughput(tokens), mrep.PeakMemoryBytes/(1<<30), 100*mrep.Sim.CollectiveShare())

	fmt.Printf("\nspeedup %.2fx with %.0f%% of the memory\n",
		rep.Sim.Throughput(tokens)/mrep.Sim.Throughput(tokens),
		100*rep.PeakMemoryBytes/mrep.PeakMemoryBytes)
}
