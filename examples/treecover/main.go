// Tree covering: the paper's §8 closes with the long-term objective of
// scheduling general trees "by covering those graphs with simpler
// structures". This example builds a branchy tree of processors,
// extracts the best-rate spider cover, schedules it optimally
// (Theorem 3) and compares against the tree's steady-state bound.
//
//	go run ./examples/treecover
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A two-subtree platform: a fast cluster whose gateway fans out to
	// two workers, and a single remote machine.
	t := repro.Tree{Roots: []repro.TreeNode{
		{Comm: 1, Work: 4, Children: []repro.TreeNode{
			{Comm: 1, Work: 2},
			{Comm: 2, Work: 3, Children: []repro.TreeNode{
				{Comm: 1, Work: 1},
			}},
		}},
		{Comm: 3, Work: 2},
	}}
	fmt.Println("tree:", t)
	fmt.Println("processors:", t.NumProcs(), " already a spider:", t.IsSpider())

	rate, err := t.Throughput()
	if err != nil {
		log.Fatal(err)
	}
	f, _ := rate.Float64()
	fmt.Printf("steady-state throughput of the FULL tree: %s (~%.3f tasks/unit)\n\n",
		rate.RatString(), f)

	const n = 24
	solver, err := repro.NewSolver(t)
	if err != nil {
		log.Fatal(err)
	}
	mk, schedule, err := solver.MinMakespan(n)
	if err != nil {
		log.Fatal(err)
	}
	if err := schedule.Verify(); err != nil {
		log.Fatal("bug: cover schedule must verify: ", err)
	}

	// A tree schedule is expressed on the cover: the spider whose legs
	// are the chosen paths.
	fmt.Println("spider cover (one best-rate path per subtree):")
	for b, leg := range schedule.(*repro.SpiderSchedule).Spider.Legs {
		fmt.Printf("  leg %d: %s\n", b, leg)
	}

	lb, err := t.LowerBound(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d tasks: cover-heuristic makespan %d, full-tree lower bound %d\n", n, mk, lb)
	fmt.Printf("the heuristic is within %.2fx of what ANY schedule on the full tree could do\n",
		float64(mk)/float64(lb))
	fmt.Println("\nGantt of the cover schedule:")
	fmt.Print(repro.GanttASCII(schedule.Intervals(), 2))
}
