// Quickstart: schedule identical tasks optimally on a heterogeneous
// chain of processors and inspect the result.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// The paper's Fig. 2 platform: a master feeding two processors in a
	// line. Arguments are (c, w) pairs: link latency, processing time.
	chain := repro.NewChain(
		2, 3, // processor 1: link latency 2, processing time 3
		3, 5, // processor 2: link latency 3, processing time 5
	)

	// Schedule 5 tasks with the optimal backward algorithm (Theorem 1).
	solver, err := repro.NewSolver(chain)
	if err != nil {
		log.Fatal(err)
	}
	makespan, schedule, err := solver.MinMakespan(5)
	if err != nil {
		log.Fatal(err)
	}

	// Every schedule knows how to verify itself against the feasibility
	// conditions of the paper's Definition 1.
	if err := schedule.Verify(); err != nil {
		log.Fatal("bug: optimal schedule must be feasible: ", err)
	}

	fmt.Printf("platform: %s\n\n", chain)
	fmt.Print(schedule)

	fmt.Printf("\nmakespan: %d (provably minimal)\n", makespan)
	if lb, err := chain.LowerBound(5); err == nil {
		fmt.Printf("steady-state relaxation bound: %d\n", lb)
	}
	if rate, err := chain.Throughput(); err == nil {
		fmt.Printf("asymptotic throughput: %s tasks/unit\n", rate.RatString())
	}

	fmt.Println("\nGantt chart (digits = tasks, '.' = buffered wait):")
	fmt.Print(repro.GanttASCII(schedule.Intervals(), 1))
}
