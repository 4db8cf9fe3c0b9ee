// Figures: regenerates every figure of the paper from the reproduction
// code — the platform sketches (Figs. 1 and 5), the worked schedule
// (Fig. 2) with its Gantt chart, the node expansion (Fig. 6) and the
// chain-to-fork transformation (Fig. 7) — and writes an SVG of the
// Fig. 2 schedule next to the terminal output.
//
//	go run ./examples/figures [-svg fig2.svg]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	svgPath := flag.String("svg", "", "write the Fig. 2 Gantt chart as SVG to this path")
	flag.Parse()

	// Figs. 1 and 5 are the platform sketches.
	fmt.Println("Fig. 1 — a chain of heterogeneous processors:")
	fmt.Printf("  %s\n\n", workload.Fig2Chain())
	fmt.Println("Fig. 5 — a spider graph:")
	fmt.Printf("%s\n\n", workload.Fig5Spider())

	// Figs. 2, 6 and 7 are full experiments (E1-E3).
	for _, id := range []string{"E1", "E2", "E3"} {
		e, ok := experiments.ByID(id)
		if !ok {
			log.Fatalf("experiment %s missing", id)
		}
		rep, err := e.Run()
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Print(rep.Format())
		fmt.Println()
	}

	if *svgPath != "" {
		solver, err := repro.NewSolver(workload.Fig2Chain())
		if err != nil {
			log.Fatal(err)
		}
		_, s, err := solver.MinMakespan(workload.Fig2TaskCount)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*svgPath, []byte(repro.GanttSVG(s.Intervals(), 24)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *svgPath)
	}
}
