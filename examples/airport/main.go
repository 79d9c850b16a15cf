// Airport: the paper's motivating example. An autonomous taxi must reach
// the airport within a 60-minute deadline. Two candidate paths have the
// travel-time distributions from the paper's introduction; mean-cost
// routing picks the riskier one. (The same table is E1 of
// cmd/experiments.)
package main

import (
	"fmt"
	"log"

	"stochroute"
)

func main() {
	log.SetFlags(0)

	// The paper's table, at the bucket midpoints of [40,50), [50,60),
	// [60,70) minutes.
	p1, err := stochroute.NewHistFromPairs(map[float64]float64{45: 0.3, 55: 0.6, 65: 0.1}, 10)
	if err != nil {
		log.Fatal(err)
	}
	p2, err := stochroute.NewHistFromPairs(map[float64]float64{45: 0.6, 55: 0.2, 65: 0.2}, 10)
	if err != nil {
		log.Fatal(err)
	}

	const deadline = 60.0
	fmt.Println("Travel-time distributions of two paths to the airport (minutes):")
	fmt.Printf("  P1 = %v   mean %.0f   P(<=%.0f) = %.1f\n", p1, p1.Mean(), deadline, p1.ProbWithinBudget(deadline))
	fmt.Printf("  P2 = %v   mean %.0f   P(<=%.0f) = %.1f\n", p2, p2.Mean(), deadline, p2.ProbWithinBudget(deadline))
	fmt.Println()

	if p2.Mean() < p1.Mean() {
		fmt.Println("Average travel times prefer P2 (51 vs 53 minutes)...")
	}
	if p1.ProbWithinBudget(deadline) > p2.ProbWithinBudget(deadline) {
		fmt.Println("...but P1 makes the 60-minute deadline with probability 0.9 vs 0.8:")
		fmt.Println("a taxi routed by averages has a higher risk of being late.")
	}
}
