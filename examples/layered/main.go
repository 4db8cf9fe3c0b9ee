// Layered networks: Li's reduction (reference [7] of the paper) turns a
// homogeneous grid with multi-port communication into a heterogeneous
// chain — exactly the topology the paper's core algorithm solves
// optimally. This example scales the task count on such a chain and
// compares the optimal backward schedule against forward heuristics and
// the steady-state lower bound.
//
//	go run ./examples/layered
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/baseline"
	"repro/internal/workload"
)

func main() {
	// 5 layers, per-hop latency 2, innermost layer aggregate speed 24.
	chain := workload.LayeredChain(5, 2, 24)
	fmt.Println("layered chain:", chain)

	rate, err := chain.Throughput()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady-state rate: %s\n\n", baseline.RateString(rate))

	heuristics := []baseline.ChainScheduler{
		baseline.ForwardGreedy{},
		baseline.RoundRobin{},
		baseline.MasterOnly{},
	}

	fmt.Printf("%6s  %8s  %8s", "n", "optimal", "LB")
	for _, h := range heuristics {
		fmt.Printf("  %14s", h.Name())
	}
	fmt.Println()

	// One warmed solver answers every task count: the backward
	// construction grows once and is reused by each larger n.
	solver, err := repro.NewSolver(chain)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range []int{10, 20, 40, 80, 160} {
		mk, optimal, err := solver.MinMakespan(n)
		if err != nil {
			log.Fatal(err)
		}
		if err := optimal.Verify(); err != nil {
			log.Fatal("bug: optimal schedule must verify: ", err)
		}
		lb, err := chain.LowerBound(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %8d  %8d", n, mk, lb)
		for _, h := range heuristics {
			s, err := h.Schedule(chain, n)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %8d(%4.2fx)", s.Makespan(),
				float64(s.Makespan())/float64(optimal.Makespan()))
		}
		fmt.Println()
	}

	fmt.Println("\nNotes:")
	fmt.Println(" - optimal/n converges to 1/rate: the backward algorithm achieves")
	fmt.Println("   the divisible-load steady state exactly, plus a bounded startup.")
	fmt.Println(" - forward-greedy stays close on this link-bound chain but never")
	fmt.Println("   wins; master-only shows what ignoring the platform costs. The")
	fmt.Println("   E8 experiment (cmd/msbench) sweeps regimes where the heuristic")
	fmt.Println("   gaps widen.")
}
