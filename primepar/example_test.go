package primepar_test

import (
	"fmt"
	"log"

	"repro/primepar"
)

// Search a strategy for a model on a simulated cluster and inspect it.
func ExampleSearch() {
	cluster, err := primepar.NewCluster(8, 4)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := primepar.Search(primepar.OPT175B(), cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes:", len(plan.Seqs))
	fmt.Println("uses P_{2^k x 2^k}:", plan.UsesPrime())
	// Output:
	// nodes: 13
	// uses P_{2^k x 2^k}: true
}

// Numerically verify that the spatial-temporal primitive preserves exact
// training semantics, with one goroutine per device.
func ExampleVerifyTraining() {
	maxErr, err := primepar.VerifyTraining(1, 64, 64, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("semantics preserved:", maxErr < 1e-9)
	// Output:
	// semantics preserved: true
}

// Compare a searched plan against the Megatron-LM baseline.
func ExampleMegatronPlan() {
	cluster, err := primepar.NewCluster(16, 4)
	if err != nil {
		log.Fatal(err)
	}
	mega, err := primepar.MegatronPlan(primepar.OPT175B(), cluster, -1)
	if err != nil {
		log.Fatal(err)
	}
	prime, err := primepar.Search(primepar.OPT175B(), cluster)
	if err != nil {
		log.Fatal(err)
	}
	mr, err := mega.Report()
	if err != nil {
		log.Fatal(err)
	}
	pr, err := prime.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PrimePar faster:", pr.Sim.IterationTime < mr.Sim.IterationTime)
	fmt.Println("PrimePar leaner:", pr.PeakMemoryBytes < mr.PeakMemoryBytes)
	// Output:
	// PrimePar faster: true
	// PrimePar leaner: true
}
