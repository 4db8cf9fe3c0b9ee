// Volunteer computing: the paper's motivating scenario (SETI@home,
// GIMPS). A master distributes identical work units over a spider of
// wildly heterogeneous volunteers and we compare:
//
//   - the offline optimal schedule (Theorems 2-3),
//
//   - demand-driven online operation (how volunteer systems really
//     work), at several pipelining depths, via discrete-event
//     simulation,
//
//   - the steady-state upper bound on throughput.
//
//     go run ./examples/volunteer
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	spider := workload.VolunteerSpider()
	const tasks = 120

	fmt.Println("platform:", spider)
	fmt.Printf("volunteers: %d, work units: %d\n\n", spider.NumProcs(), tasks)

	// Offline optimum.
	solver, err := repro.NewSolver(spider)
	if err != nil {
		log.Fatal(err)
	}
	makespan, schedule, err := solver.MinMakespan(tasks)
	if err != nil {
		log.Fatal(err)
	}
	if err := schedule.Verify(); err != nil {
		log.Fatal("bug: optimal schedule must verify: ", err)
	}
	fmt.Printf("offline optimal makespan: %d\n", makespan)
	counts := schedule.(*repro.SpiderSchedule).CountsByLeg()
	fmt.Print("  tasks per volunteer leg: ")
	fmt.Println(counts)

	// Online demand-driven operation at several pipelining depths.
	fmt.Println("\nonline (discrete-event simulated):")
	for _, credits := range []int{1, 2, 4} {
		res, err := sim.Run(spider, tasks, sim.NewPull(credits))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s makespan %5d  (%.2fx optimal)\n",
			res.Policy, res.Makespan, float64(res.Makespan)/float64(makespan))
	}
	res, err := sim.Run(spider, tasks, sim.NewRandomPush(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-18s makespan %5d  (%.2fx optimal)\n",
		res.Policy, res.Makespan, float64(res.Makespan)/float64(makespan))

	// Where does the time go? Busiest resources under pull(1).
	res, err = sim.Run(spider, tasks, sim.NewPull(1))
	if err != nil {
		log.Fatal(err)
	}
	type util struct {
		name string
		busy float64
	}
	var utils []util
	for name, busy := range res.Utilisation {
		utils = append(utils, util{name, float64(busy) / float64(res.Makespan)})
	}
	// Ties in utilisation print in name order, so every run lists the
	// same resources.
	sort.Slice(utils, func(i, j int) bool {
		if utils[i].busy != utils[j].busy {
			return utils[i].busy > utils[j].busy
		}
		return utils[i].name < utils[j].name
	})
	fmt.Println("\nbusiest resources under pull(1):")
	for _, u := range utils[:min(5, len(utils))] {
		fmt.Printf("  %-16s %5.1f%%\n", u.name, 100*u.busy)
	}

	// The master's port is the shared bottleneck the paper's model
	// centres on; the steady-state rate quantifies it exactly.
	if rate, err := spider.Throughput(); err == nil {
		f, _ := rate.Float64()
		fmt.Printf("\nsteady-state throughput: %s (~%.3f tasks/unit)\n", rate.RatString(), f)
		fmt.Printf("=> %d tasks need at least ~%.0f time units\n", tasks, float64(tasks)/f)
	}
}
